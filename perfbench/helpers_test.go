package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true}, // ranks 91..100 lie beyond: exactly ten
		{99, 0.90, 90, false}, // only nine beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if n := minSamplesFor(0.90); n != 100 {
		t.Errorf("minSamplesFor(0.90) = %d, want 100", n)
	}
	if n := minSamplesFor(0.99); n != 1000 {
		t.Errorf("minSamplesFor(0.99) = %d, want 1000", n)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as valid")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, ok := quartiles(seq(10))
	if !ok || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v %v", q1, q2, q3, ok)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3, _ = quartiles([]float64{5, 4, 3, 2, 1})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v", q1, q2, q3)
	}
	sp, ok := spread(seq(10))
	if !ok || math.Abs(sp-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", sp)
	}
}

func TestScheduleHasExactPerCaseCounts(t *testing.T) {
	const cases, per = 12, 37
	s := buildSchedule(cases, per, 50, 7)
	if len(s) != cases*per {
		t.Fatalf("len = %d, want %d", len(s), cases*per)
	}
	counts := make([]int, cases)
	for i, sl := range s {
		counts[sl.kase]++
		if want := time.Duration(i) * (time.Second / 50); sl.due != want {
			t.Fatalf("slot %d due %v, want %v", i, sl.due, want)
		}
	}
	for c, n := range counts {
		if n != per {
			t.Errorf("case %d scheduled %d times, want %d", c, n, per)
		}
	}
	// The seed changes the order, never the counts.
	other := buildSchedule(cases, per, 50, 8)
	same := true
	for i := range s {
		if s[i].kase != other[i].kase {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced the same order")
	}
}

func TestBacklogAtEnd(t *testing.T) {
	ms := time.Millisecond
	keepUp := []outcome{{due: 0, sent: 0}, {due: 10 * ms, sent: 10 * ms}, {due: 20 * ms, sent: 21 * ms}}
	if n := backlogAtEnd(keepUp); n != 1 {
		t.Errorf("keeping up: backlog %d, want 1 (only the last request)", n)
	}
	behind := []outcome{{due: 0, sent: 0}, {due: 10 * ms, sent: 30 * ms}, {due: 20 * ms, sent: 60 * ms}}
	if n := backlogAtEnd(behind); n != 2 {
		t.Errorf("falling behind: backlog %d, want 2", n)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100 * ms},
		// Nested chain: root ⊃ a ⊃ b.
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 1, Name: "b", Start: 20 * ms, End: 30 * ms},
		// Two children of root that overlap each other (parallel work):
		// their union is [50, 80), not 20+20 ms.
		{ID: 3, Parent: 0, Name: "p1", Start: 50 * ms, End: 70 * ms},
		{ID: 4, Parent: 0, Name: "p2", Start: 60 * ms, End: 80 * ms},
		// A child that sticks out past its parent is clipped to it.
		{ID: 5, Parent: 4, Name: "late", Start: 75 * ms, End: 90 * ms},
	}
	want := map[int]time.Duration{
		0: 100*ms - 30*ms - 30*ms, // minus a [10,40) and p1∪p2 [50,80)
		1: 20 * ms,
		2: 10 * ms,
		3: 20 * ms,
		4: 15 * ms, // 20 ms minus the clipped [75,80)
		5: 15 * ms,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%s) = %v, want %v", spans[id].Name, got[id], w)
		}
	}
}

func TestRecorderTimed(t *testing.T) {
	r := newRecorder()
	root := r.start("root", -1)
	d, err := r.timed("child", root, func() error { time.Sleep(2 * time.Millisecond); return nil })
	if err != nil || d < 2*time.Millisecond {
		t.Fatalf("timed = %v, %v", d, err)
	}
	r.end(root)
	sp := r.snapshot()
	if len(sp) != 2 || sp[1].Parent != root || sp[0].dur() < sp[1].dur() {
		t.Fatalf("spans = %+v", sp)
	}
	if self := selfTimes(sp); self[root] != sp[0].dur()-sp[1].dur() {
		t.Errorf("root self %v, want %v", self[root], sp[0].dur()-sp[1].dur())
	}
}
