package chaos

import (
	"hash/fnv"
	"sync"

	"repro/internal/workload"
)

// ackLoc identifies where a write was acknowledged: the shard group ("" in
// single-cluster scenarios) and the serving replica.
type ackLoc struct {
	shard string
	node  NodeID
}

// writeRec records that some acknowledged write at a location is not yet
// sealed (value identity lives in keyRec.hashes).
type writeRec struct {
	at     ackLoc
	atRisk bool
}

// keyRec accumulates everything acknowledged for one key.
type keyRec struct {
	// hashes holds every value ever acknowledged for the key; under LWW
	// the converged value must be one of them.
	hashes map[uint64]struct{}
	// sealed is set once any write to the key survived a converged
	// quiesce: from then on the key must exist on every live replica.
	sealed bool
	// pending are acked writes not yet sealed.
	pending []writeRec
}

// tracker wraps the system under test's clients (see client, sessions.go),
// recording every acknowledged write so the durability invariant can be
// checked later.
//
// Durability classification mirrors what the protocol actually guarantees:
// an acked write becomes *sealed* (loss is a bug) once the system converges
// at a quiesce point while its acking replica is alive — convergence means
// every live replica holds it. A write is *at-risk* (loss is allowed, the
// documented weakness) when its acking replica lost state (empty-state
// restart, or still dead at the final check) before the write was sealed,
// or when it was acked while a shard handoff was in flight (resharding is
// documented non-linearizable against racing writes).
type tracker struct {
	// gate pauses traffic: ops hold it shared, Pause takes it exclusively,
	// so Pause blocks until in-flight ops drain and stops new ones.
	gate sync.RWMutex
	// open opens one client of the system under test (a failover session
	// over the cluster, or a router session).
	open func() workload.Client

	// oracle, when non-nil, arms the session-guarantee oracle: clients check
	// their session- and strong-level reads against per-session floors.
	oracle *sessionOracle

	mu         sync.Mutex
	keys       map[string]*keyRec
	reshard    int // nesting count of in-flight reshards
	reshardGen int // total reshards ever begun: sessions reset floors on change
	acked      int
	atRisk     int
}

func newTracker(open func() workload.Client) *tracker {
	return &tracker{open: open, keys: make(map[string]*keyRec)}
}

// recordAck books one acknowledged write for the durability invariant.
// Callers hold the gate shared.
func (t *tracker) recordAck(key string, value []byte, loc ackLoc) {
	h := hashBytes(value)
	t.mu.Lock()
	defer t.mu.Unlock()
	kr := t.keys[key]
	if kr == nil {
		kr = &keyRec{hashes: make(map[uint64]struct{}, 2)}
		t.keys[key] = kr
	}
	kr.hashes[h] = struct{}{}
	rec := writeRec{at: loc, atRisk: t.reshard > 0}
	if rec.atRisk {
		t.atRisk++
	}
	// Pending records exist to answer "is there an unsealed write acked at
	// loc (safe/at-risk)?" — dedupe on that, so the list stays bounded by
	// replicas × 2 per key no matter how many writes a round applies.
	dup := false
	for _, w := range kr.pending {
		if w.at == loc && w.atRisk == rec.atRisk {
			dup = true
			break
		}
	}
	if !dup {
		kr.pending = append(kr.pending, rec)
	}
	t.acked++
}

// Pause blocks until in-flight ops drain, then stops new ops until Resume.
func (t *tracker) Pause() { t.gate.Lock() }

// Resume lets traffic flow again.
func (t *tracker) Resume() { t.gate.Unlock() }

// beginReshard marks subsequent acks at-risk until endReshard.
func (t *tracker) beginReshard() {
	t.mu.Lock()
	t.reshard++
	t.reshardGen++
	t.mu.Unlock()
}

// reshardState reports whether a reshard is in flight and how many have
// ever begun — sessions drop their floors when the generation moves (key
// ownership may have changed; the handoff window is documented
// non-linearizable).
func (t *tracker) reshardState() (active bool, gen int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reshard > 0, t.reshardGen
}

func (t *tracker) endReshard() {
	t.mu.Lock()
	t.reshard--
	t.mu.Unlock()
}

// markLost flags pending writes acked at loc as at-risk: the replica's
// un-replicated state is gone.
func (t *tracker) markLost(loc ackLoc) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, kr := range t.keys {
		for i := range kr.pending {
			w := &kr.pending[i]
			if !w.atRisk && w.at == loc {
				w.atRisk = true
				t.atRisk++
			}
		}
	}
}

// seal promotes pending writes to sealed after a converged quiesce.
// Convergence covers live replicas only, so writes acked at a currently
// dead replica stay pending — they may exist nowhere else.
func (t *tracker) seal(dead map[ackLoc]bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, kr := range t.keys {
		kept := kr.pending[:0]
		for _, w := range kr.pending {
			if w.atRisk || dead[w.at] {
				kept = append(kept, w)
				continue
			}
			kr.sealed = true
		}
		kr.pending = kept
	}
}

// counts reports tracked totals for observations.
func (t *tracker) counts() (acked, keys, atRisk int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acked, len(t.keys), t.atRisk
}

// durability summarises the final check.
type durability struct {
	required   int // keys that must exist on the converged system
	missing    int // required keys absent
	wrongValue int // keys whose converged value was never acknowledged
	atRiskOnly int // keys whose every write was at-risk (presence optional)
}

func (d durability) ok() bool { return d.missing == 0 && d.wrongValue == 0 }

// checkDurability verifies every tracked key against the converged system:
// lookup returns the converged value hash for a key, or false when absent.
// Call only at a converged checkpoint.
func (t *tracker) checkDurability(lookup func(key string) (uint64, bool)) durability {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d durability
	for key, kr := range t.keys {
		required := kr.sealed
		if !required {
			for _, w := range kr.pending {
				if !w.atRisk {
					required = true
					break
				}
			}
		}
		h, present := lookup(key)
		if required {
			d.required++
			if !present {
				d.missing++
				continue
			}
		} else {
			d.atRiskOnly++
		}
		if present {
			if _, known := kr.hashes[h]; !known {
				d.wrongValue++
			}
		}
	}
	return d
}

// hashBytes is FNV-1a over the value — cheap identity for acked payloads.
func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
