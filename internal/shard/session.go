package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/runtime"
	"repro/internal/store"
)

// This file is the sharded face of the consistency plane: a Session that
// carries one freshness token per shard group (summary watermarks are only
// comparable within a group — NodeIDs are dense per group), routes leveled
// reads token-aware, and serialises to a compact binary form so a client
// can carry its guarantees across processes.
//
// Guarantee scope: a session's watermark names positions in its group's
// replica-id space. Resharding moves *content* between groups, not log
// positions, so a key that changes owners mid-session re-enters that
// session with a fresh (empty) floor for the new group — read-your-writes
// and monotonic reads hold per key only while its owner is stable. The
// same caveat as the reshard handoff itself (AddShard's non-linearizable
// window) applies.

// Session is a sharded client session: per-group freshness tokens plus the
// wait parameters every leveled read uses. Obtain one from
// Router.NewSession. Like runtime.Session it is one logical client and is
// NOT safe for concurrent use; concurrent clients each carry their own.
type Session struct {
	r *Router
	// MaxLag is the staleness bound runtime.LevelBounded reads enforce.
	MaxLag uint64
	// Deadline bounds every freshness wait; 0 selects
	// runtime.DefaultFreshWait.
	Deadline time.Duration

	tokens map[string]*runtime.Token
	opt    runtime.LeveledRead
}

// NewSession starts an empty session against the router.
func (r *Router) NewSession() *Session {
	return &Session{r: r, tokens: make(map[string]*runtime.Token)}
}

// token returns the session's token for one shard, creating it on first
// touch.
func (s *Session) token(shard string) *runtime.Token {
	tok := s.tokens[shard]
	if tok == nil {
		tok = &runtime.Token{}
		s.tokens[shard] = tok
	}
	return tok
}

// Write routes a session write: the acknowledged position joins the owning
// shard's token, so later session reads of any key in that shard observe
// it.
func (s *Session) Write(key string, value []byte) (Receipt, error) {
	return s.r.write(key, value, s)
}

// ReadLevel serves a read at an explicit consistency level.
func (s *Session) ReadLevel(key string, lvl runtime.Level) ([]byte, bool, error) {
	v, ok, err := s.ReadVersioned(key, lvl)
	return v.Value, ok, err
}

// ReadVersioned is ReadLevel returning the full version, so callers (caches,
// invariant oracles) can order what they observed.
func (s *Session) ReadVersioned(key string, lvl runtime.Level) (store.Versioned, bool, error) {
	g, id, opt, err := s.r.routeRead(key, s, lvl)
	if err != nil {
		return store.Versioned{}, false, err
	}
	v, ok, err := g.cluster.ReadLeveled(id, key, opt)
	g.readDone(err)
	return v, ok, err
}

// sessionCodecVersion tags the session wire encoding: the version byte, a
// uvarint shard count, then per shard (sorted by name, so the encoding is
// canonical) a length-prefixed name and a length-prefixed token encoding.
const sessionCodecVersion = 1

// maxSessionShards bounds the shard count a decoded session may carry, so
// a hostile encoding cannot force unbounded allocation.
const maxSessionShards = 1 << 16

// Export serialises the session's tokens (wait parameters are client
// config, not state, and are not carried). The encoding is canonical:
// exporting an imported session reproduces it byte-for-byte.
func (s *Session) Export() ([]byte, error) {
	names := make([]string, 0, len(s.tokens))
	for name, tok := range s.tokens {
		if tok.Positions().Total() == 0 {
			continue // empty tokens carry no guarantee; keep the form canonical
		}
		names = append(names, name)
	}
	sort.Strings(names)
	out := []byte{sessionCodecVersion}
	out = binary.AppendUvarint(out, uint64(len(names)))
	for _, name := range names {
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		tb := s.tokens[name].AppendBinary(nil)
		out = binary.AppendUvarint(out, uint64(len(tb)))
		out = append(out, tb...)
	}
	return out, nil
}

// Import replaces the session's tokens with a previously Exported image.
// Guarantees resume exactly where the exporting process left them.
func (s *Session) Import(data []byte) error {
	if len(data) == 0 {
		return errors.New("shard: empty session encoding")
	}
	if data[0] != sessionCodecVersion {
		return fmt.Errorf("shard: unknown session version %d", data[0])
	}
	rest := data[1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return errors.New("shard: truncated session shard count")
	}
	rest = rest[n:]
	if count > maxSessionShards {
		return fmt.Errorf("shard: session shard count %d too large", count)
	}
	tokens := make(map[string]*runtime.Token, count)
	prev := ""
	for i := uint64(0); i < count; i++ {
		nameLen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest[n:])) < nameLen {
			return errors.New("shard: truncated session shard name")
		}
		rest = rest[n:]
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		if i > 0 && name <= prev {
			return fmt.Errorf("shard: session shards out of order at %q", name)
		}
		prev = name
		tokLen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest[n:])) < tokLen {
			return errors.New("shard: truncated session token")
		}
		rest = rest[n:]
		tok := &runtime.Token{}
		if err := tok.UnmarshalBinary(rest[:tokLen]); err != nil {
			return fmt.Errorf("shard: session token for %q: %w", name, err)
		}
		rest = rest[tokLen:]
		tokens[name] = tok
	}
	if len(rest) != 0 {
		return fmt.Errorf("shard: %d trailing bytes after session", len(rest))
	}
	s.tokens = tokens
	return nil
}
