package parallel

// Lane runs tasks one at a time beside the goroutine that hands them over,
// in hand-over order: Go waits for the task in flight before it starts the
// next, so at most one runs at any moment and each starts after the one
// before it returned. That is the one-deep pipeline of a follow engine,
// whose reader mines bucket k+1 while bucket k's commit runs on the lane.
//
// A task runs on a goroutine of its own, outside the shared helper pool: a
// commit that waits on disk must never occupy a helper a Map call could
// recruit. A task's panic is re-raised on the goroutine that next waits for
// it, as Map re-raises a worker's on its caller.
//
// A Lane is driven by one goroutine: only it calls Go and Wait. The zero
// value is an idle lane.
type Lane struct {
	done     chan struct{} // closed when the task in flight returns; nil when none is
	panicked bool          // written by the task before done closes
	value    any
}

// Go waits for the task in flight, if any, then starts fn.
func (l *Lane) Go(fn func()) {
	l.Wait()
	done := make(chan struct{})
	l.done = done
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				l.panicked, l.value = true, r
			}
		}()
		fn()
	}()
}

// Busy reports whether a task was handed over and not yet waited for.
func (l *Lane) Busy() bool { return l.done != nil }

// Wait blocks until the task in flight, if any, has returned, and re-raises
// its panic.
func (l *Lane) Wait() {
	if l.done == nil {
		return
	}
	<-l.done
	l.done = nil
	if l.panicked {
		v := l.value
		l.panicked, l.value = false, nil
		panic(v)
	}
}
