package shard

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/runtime"
)

func TestSessionReadYourWritesAcrossShards(t *testing.T) {
	router := startRouter(t, carved(t, 15, 3), Config{Seed: 11})

	s := router.NewSession()
	// Spread writes over enough keys to hit every shard, then read each
	// back at session level immediately — no convergence wait. The router
	// may serve any replica of the owning group; the session guarantee
	// makes every one of them wait for the write.
	const nKeys = 30
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("sess-%03d", i)
		if _, err := s.Write(key, []byte(key+"-v")); err != nil {
			t.Fatalf("Write(%s): %v", key, err)
		}
		v, ok, err := s.ReadLevel(key, runtime.LevelSession)
		if err != nil {
			t.Fatalf("Read(%s): %v", key, err)
		}
		if !ok || !bytes.Equal(v, []byte(key+"-v")) {
			t.Fatalf("Read(%s) = (%q, %t), want own write", key, v, ok)
		}
	}
	// The session holds one token per touched shard.
	if len(s.tokens) == 0 || len(s.tokens) > len(router.Shards()) {
		t.Fatalf("session carries %d tokens over %d shards", len(s.tokens), len(router.Shards()))
	}
}

func TestSessionExportImport(t *testing.T) {
	router := startRouter(t, carved(t, 12, 3), Config{Seed: 13})

	s := router.NewSession()
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("xp-%03d", i)
		if _, err := s.Write(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	img, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}

	// A new session (a new process picking up the client's cookie) resumes
	// the guarantees: reads of the first session's keys cannot miss.
	s2 := router.NewSession()
	if err := s2.Import(img); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("xp-%03d", i)
		v, ok, err := s2.ReadLevel(key, runtime.LevelSession)
		if err != nil || !ok || !bytes.Equal(v, []byte("v")) {
			t.Fatalf("imported session Read(%s) = (%q, %t, %v)", key, v, ok, err)
		}
	}
	// Canonical: re-export reproduces the image byte-for-byte.
	img2, err := s2.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, img2) {
		t.Error("re-export differs from original image")
	}
}

func TestSessionImportRejectsHostileInput(t *testing.T) {
	router := startRouter(t, carved(t, 8, 2), Config{Seed: 17})
	s := router.NewSession()
	cases := map[string][]byte{
		"empty":            {},
		"bad version":      {9},
		"truncated count":  {1},
		"huge count":       append([]byte{1}, 0xff, 0xff, 0xff, 0xff, 1),
		"truncated name":   {1, 1, 10, 'a'},
		"truncated token":  {1, 1, 1, 'a', 10, 1},
		"bad token":        {1, 1, 1, 'a', 1, 99},
		"unsorted shards":  {1, 2, 1, 'b', 2, 1, 0, 1, 'a', 2, 1, 0},
		"duplicate shards": {1, 2, 1, 'a', 2, 1, 0, 1, 'a', 2, 1, 0},
	}
	for name, data := range cases {
		if err := s.Import(data); err == nil {
			t.Errorf("%s: hostile session encoding accepted", name)
		}
	}
}

func TestSessionLeveledReads(t *testing.T) {
	router := startRouter(t, carved(t, 12, 2), Config{Seed: 19})

	s := router.NewSession()
	if _, err := s.Write("lv-key", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []runtime.Level{runtime.LevelEventual, runtime.LevelSession, runtime.LevelBounded, runtime.LevelStrong} {
		v, ok, err := s.ReadLevel("lv-key", lvl)
		if err != nil {
			t.Fatalf("%v read: %v", lvl, err)
		}
		// Eventual and bounded reads may legitimately miss right after the
		// write (bounded: the token floor is this session's own write, so
		// within MaxLag 0 it cannot miss — but leave only the guaranteed
		// levels strict).
		if lvl == runtime.LevelSession || lvl == runtime.LevelStrong {
			if !ok || !bytes.Equal(v, []byte("v")) {
				t.Fatalf("%v read = (%q, %t), want the write visible", lvl, v, ok)
			}
		}
	}
}

func TestPickTokenPrefersCoveringReplica(t *testing.T) {
	router := startRouter(t, carved(t, 10, 1), Config{Seed: 23})
	g, ok := router.Group(router.Shards()[0])
	if !ok {
		t.Fatal("missing group")
	}

	tok := &runtime.Token{}
	rec, err := g.Cluster().WriteToken(0, "pk", []byte("v"), tok)
	if err != nil {
		t.Fatal(err)
	}
	// Immediately after the ack, replica 0 is (at least) one covering
	// replica; pick must choose a covering one, whatever demand says —
	// under every policy, RouteRandom included.
	for _, p := range []RoutePolicy{RouteLowestDemand, RouteHighestDemand, RouteRandom} {
		if id := g.pick(p, tok); !g.Cluster().TokenCovered(id, tok) {
			t.Fatalf("%v: pick chose non-covering replica %v", p, id)
		}
	}
	// A token nobody covers routes exactly like no token: the plain policy
	// pick, where the read then parks.
	far := &runtime.Token{}
	farTS := rec.TS
	farTS.Seq += 1 << 20
	far.ObserveWrite(farTS)
	if got, want := g.pick(RouteLowestDemand, far), g.pick(RouteLowestDemand, nil); got != want {
		t.Fatalf("uncovered-token pick = %v, want the plain pick %v", got, want)
	}
}
