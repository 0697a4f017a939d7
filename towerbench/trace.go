package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Spans are timed from the benchmark's side of each layer boundary:
// around the calls it makes into tcpip, issl, the redirector path and
// the Rabbit machines. Each client keeps its own log (no locking on the
// request path); the logs are merged and written out when the run ends.

// spanName indexes spanNames.
type spanName uint8

const (
	spanRequest spanName = iota
	spanConnect
	spanHandshake
	spanWrite
	spanRedirectorRT
	spanClusterRT
	spanAsmChain
	spanCChain
	spanRefChain
)

var spanNames = [...]string{
	spanRequest:      "request",
	spanConnect:      "tcpip.connect",
	spanHandshake:    "issl.handshake",
	spanWrite:        "issl.write",
	spanRedirectorRT: "redirector.roundtrip",
	spanClusterRT:    "cluster.roundtrip",
	spanAsmChain:     "aesasm.chain",
	spanCChain:       "aesc.chain",
	spanRefChain:     "aes.reference",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call. Times are nanoseconds since the run's epoch;
// parent indexes the same log (-1 for a root).
type span struct {
	name       spanName
	resumed    bool // issl.handshake only: the dial ended resumed
	parent     int32
	req        uint64
	start, end int64
}

func (s *span) dur() int64 { return s.end - s.start }

// spanLog is one client's in-memory span log. A nil log records nothing,
// so the untraced path pays one nil check per boundary.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog(epoch time.Time) *spanLog {
	return &spanLog{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// open starts a span and returns its index (-1 on a nil log).
func (l *spanLog) open(name spanName, parent int32, reqID uint64) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, req: reqID, start: l.now()})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) close(i int32) {
	if l != nil && i >= 0 {
		l.spans[i].end = l.now()
	}
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children of one client never overlap (a client is one
// goroutine), so covered time is the sum of child durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
	}
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// spanStats collects per-name durations across all client logs.
type spanStats struct {
	durs        map[string][]int64
	count       int
	reqTotal    int64 // summed request span durations
	reqSelf     int64 // summed request self time: the unattributed part
	hsFull      []int64
	hsResumed   []int64
	dumpedSpans []dumpedSpan
}

type dumpedSpan struct {
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Req     uint64 `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func collectSpans(logs []*spanLog) *spanStats {
	st := &spanStats{durs: map[string][]int64{}}
	for li, l := range logs {
		if l == nil {
			continue
		}
		self := selfTimes(l.spans)
		for i := range l.spans {
			s := &l.spans[i]
			st.count++
			name := s.name.String()
			st.durs[name] = append(st.durs[name], s.dur())
			switch s.name {
			case spanRequest:
				st.reqTotal += s.dur()
				st.reqSelf += self[i]
			case spanHandshake:
				if s.resumed {
					st.hsResumed = append(st.hsResumed, s.dur())
				} else {
					st.hsFull = append(st.hsFull, s.dur())
				}
			}
			d := dumpedSpan{ID: fmt.Sprintf("%d.%d", li, i), Req: s.req, Name: name,
				StartNs: s.start, EndNs: s.end, SelfNs: self[i]}
			if s.parent >= 0 {
				d.Parent = fmt.Sprintf("%d.%d", li, s.parent)
			}
			st.dumpedSpans = append(st.dumpedSpans, d)
		}
	}
	return st
}

// unattributedShare is the part of all request time no child span
// covers.
func (st *spanStats) unattributedShare() float64 {
	if st.reqTotal == 0 {
		return 0
	}
	return float64(st.reqSelf) / float64(st.reqTotal)
}

// write stores the spans as JSON lines, one span per line.
func (st *spanStats) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range st.dumpedSpans {
		if err := enc.Encode(&st.dumpedSpans[i]); err != nil {
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

// quantileMs returns the q-quantile (nearest rank) of ns durations in
// milliseconds; 0 when there are none.
func quantileMs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := min(max(int(math.Ceil(q*float64(len(s))))-1, 0), len(s)-1)
	return float64(s[i]) / 1e6
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
