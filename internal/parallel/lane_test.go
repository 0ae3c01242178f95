package parallel

import (
	"slices"
	"testing"
)

// TestLaneRunsInHandOverOrder: each task starts after the one before it
// returned, so a log the tasks append to without a lock holds them in the
// order they were handed over — under -race, the proof that no two overlap
// — and Wait makes everything they wrote visible to the driver.
func TestLaneRunsInHandOverOrder(t *testing.T) {
	var l Lane
	l.Wait() // an idle lane returns at once
	var log []int
	for i := 0; i < 100; i++ {
		l.Go(func() { log = append(log, i) })
	}
	l.Wait()
	want := make([]int, 100)
	for i := range want {
		want[i] = i
	}
	if !slices.Equal(log, want) {
		t.Fatalf("tasks ran as %v; want hand-over order", log)
	}
}

// TestLanePanicPropagation: a task's panic surfaces, with its value, on the
// driver's next Wait — or on the Go that waits for it — and leaves the lane
// idle and usable.
func TestLanePanicPropagation(t *testing.T) {
	caught := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	var l Lane
	l.Go(func() { panic("commit boom") })
	if v := caught(l.Wait); v != "commit boom" {
		t.Fatalf("Wait recovered %v; want the task's panic", v)
	}
	l.Go(func() { panic("second boom") })
	if v := caught(func() { l.Go(func() {}) }); v != "second boom" {
		t.Fatalf("Go recovered %v; want the panic of the task it waited for", v)
	}
	ran := false
	l.Go(func() { ran = true })
	if v := caught(l.Wait); v != nil || !ran {
		t.Fatalf("after two panics the lane ran=%v and recovered %v; want a clean run", ran, v)
	}
}
