package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a boundary the harness can see from
// outside. Spans of one client op share Op; Cause is the op's root span
// (0 for the root itself).
type span struct {
	Name    string `json:"name"`
	Op      uint64 `json:"op"`
	Cause   uint64 `json:"cause"`
	StartNs int64  `json:"start_ns"` // since the span log was opened
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. Closed-loop workloads
// add 1 op in 1024, open-loop workloads add every op.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) add(name string, op, cause uint64, start, end time.Time) {
	s := span{name, op, cause, int64(start.Sub(l.base)), int64(end.Sub(l.base))}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
