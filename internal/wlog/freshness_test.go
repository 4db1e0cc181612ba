package wlog

import (
	"testing"

	"repro/internal/vclock"
)

func TestLogLagBehind(t *testing.T) {
	l := New()
	for i := 0; i < 3; i++ {
		l.Append(0, "k", []byte("v"), uint64(i+1))
	}

	want := vclock.NewSummary()
	want.Advance(0, 2)
	if got := l.LagBehind(want); got != 0 {
		t.Errorf("lag behind covered summary = %d, want 0", got)
	}

	want.Advance(0, 5) // two writes the log has not seen
	want.Advance(7, 4) // four more from an unknown origin
	if got := l.LagBehind(want); got != 6 {
		t.Errorf("lag behind ahead summary = %d, want 6", got)
	}
}

func TestLogMergeSummaryInto(t *testing.T) {
	l := New()
	l.Append(1, "k", []byte("v"), 1)
	l.Append(1, "k", []byte("v"), 2)

	dst := vclock.NewSummary()
	dst.Advance(0, 9)
	l.MergeSummaryInto(dst)
	if got := dst.Get(1); got != 2 {
		t.Errorf("merged head for origin 1 = %d, want 2", got)
	}
	if got := dst.Get(0); got != 9 {
		t.Errorf("merge clobbered origin 0: head %d, want 9", got)
	}
}
