// Drain-under-chaos regression: Close racing an in-flight flush must
// neither deadlock nor leak the flush worker's semaphore slot.

package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestServerCloseDuringBlockedFlush pins the drain contract at its
// worst moment: a flush has bound its batch and acquired a worker
// slot, then wedges (the flushGate stands in for a slow or retrying
// sort). A deadline-bounded Close must return ctx.Err() instead of
// deadlocking; once the flush unwedges, the drain completes, the
// bound request still gets its sorted reply, the semaphore slot is
// returned, and later submissions are refused with ErrClosed.
func TestServerCloseDuringBlockedFlush(t *testing.T) {
	s, gate := gatedServer(t, Config{})

	in := randKeys(5, 1)
	ch, err := s.Submit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the flush holds its worker slot; it is then wedged
	// between binding the batch and sorting it.
	waitSem(t, s, 1)

	// Close with a deadline while the flush is wedged: the drain cannot
	// finish, so Close must give up with ctx.Err — not deadlock.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close during wedged flush = %v, want DeadlineExceeded", err)
	}

	// The server is sealed even though the drain is still pending.
	if _, err := s.Submit(context.Background(), randKeys(3, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}

	// Unwedge the flush: the background drain must now complete, and
	// the request bound before Close still gets its sorted reply.
	gate <- struct{}{}
	rep := awaitReply(t, ch)
	if rep.Err != nil {
		t.Fatalf("bound request dropped by drain: %v", rep.Err)
	}
	checkSorted(t, rep.Keys, in)

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := s.Close(ctx2); err != nil {
		t.Fatalf("Close after unwedge: %v", err)
	}
	// All worker slots returned: no leaked semaphore capacity.
	if got := len(s.sem); got != 0 {
		t.Fatalf("%d semaphore slots leaked", got)
	}
}
