package core

// Unit tests for the pooled, callback-driven Future (docs/adr/0010): the
// accessor before/after contract, exactly-once callback delivery on both
// sides of the completion race, and the generation check that keeps a stale
// handle from ever reading a recycled future's next operation.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/tag"
)

func TestFutureAccessorsBeforeAndAfterCompletion(t *testing.T) {
	f := newFuture(7)
	if f.Op() != 7 {
		t.Fatalf("Op = %d, want 7", f.Op())
	}
	if _, ok := f.TagWitness(); ok {
		t.Fatal("TagWitness ok before completion")
	}
	if _, ok := f.Incarnation(); ok {
		t.Fatal("Incarnation ok before completion")
	}
	select {
	case <-f.Done():
		t.Fatal("Done closed before completion")
	default:
	}

	wit := tag.Tag{Seq: 3, Writer: 1, Rec: 2}
	f.complete([]byte("v"), wit, 9, nil)

	<-f.Done() // must be closed now
	val, err := f.Wait(context.Background())
	if err != nil || string(val) != "v" {
		t.Fatalf("Wait = %q, %v", val, err)
	}
	if w, ok := f.TagWitness(); !ok || w != wit {
		t.Fatalf("TagWitness = %v, %v", w, ok)
	}
	if inc, ok := f.Incarnation(); !ok || inc != 9 {
		t.Fatalf("Incarnation = %d, %v", inc, ok)
	}
	f.Release()
}

func TestFutureFailedOpCarriesNoWitness(t *testing.T) {
	f := newFuture(1)
	f.complete(nil, tag.Tag{}, 0, ErrCrashed)
	if _, ok := f.TagWitness(); ok {
		t.Fatal("TagWitness ok on failed op")
	}
	if _, ok := f.Incarnation(); ok {
		t.Fatal("Incarnation ok on failed op")
	}
	if _, err := f.Wait(context.Background()); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Wait err = %v, want ErrCrashed", err)
	}
	f.Release()
}

func TestFutureOnDoneFiresOnceEachSide(t *testing.T) {
	// Callback registered before completion: fired by complete, with the
	// registered argument.
	f := newFuture(1)
	fired := 0
	var gotArg any
	f.OnDone(func(ff *Future, arg any) {
		fired++
		gotArg = arg
		if ff != f {
			t.Error("callback received a different future")
		}
	}, "arg-a")
	f.complete(nil, tag.Tag{}, 1, nil)
	if fired != 1 || gotArg != "arg-a" {
		t.Fatalf("callback fired %d times with arg %v", fired, gotArg)
	}
	f.Release()

	// Callback registered after completion: fired immediately, inline.
	g := newFuture(2)
	g.complete(nil, tag.Tag{}, 1, nil)
	fired = 0
	g.OnDone(func(*Future, any) { fired++ }, nil)
	if fired != 1 {
		t.Fatalf("post-completion OnDone fired %d times", fired)
	}
	g.Release()
}

func TestFutureGenerationGuardsRecycledResult(t *testing.T) {
	f := newFuture(1)
	gen := f.Generation()
	wit := tag.Tag{Seq: 1, Writer: 0, Rec: 1}
	f.complete([]byte("first"), wit, 5, nil)

	val, w, inc, err, ok := f.Result(gen)
	if !ok || string(val) != "first" || w != wit || inc != 5 || err != nil {
		t.Fatalf("Result(current gen) = %q %v %d %v %v", val, w, inc, err, ok)
	}

	f.Release()
	// The released future recycles; whether or not the pool hands this very
	// future out again, the stale generation must read nothing.
	if _, _, _, _, ok := f.Result(gen); ok {
		t.Fatal("stale generation read a released future")
	}

	// Drain the pool until we get f back (single pool, same P — the next
	// Get returns it immediately in practice), complete a second op, and
	// check the stale handle still reads nothing.
	g := newFuture(2)
	g.complete([]byte("second"), tag.Tag{Seq: 2, Writer: 0, Rec: 1}, 6, nil)
	if g == f {
		if _, _, _, _, ok := f.Result(gen); ok {
			t.Fatal("stale generation read the recycled future's next op")
		}
		if _, _, _, _, ok := g.Result(g.Generation()); !ok {
			t.Fatal("current generation failed to read its own result")
		}
	}
	g.Release()
}

func TestFutureWaitContextCancel(t *testing.T) {
	f := newFuture(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := f.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait err = %v, want DeadlineExceeded", err)
	}
	// Cancelling the wait abandons the wait, not the operation: completion
	// must still work and be observable.
	f.complete(nil, tag.Tag{}, 1, nil)
	if _, err := f.Wait(context.Background()); err != nil {
		t.Fatalf("Wait after completion: %v", err)
	}
	f.Release()
}

func TestFutureReleasePanicsOnPending(t *testing.T) {
	f := newFuture(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of a pending future did not panic")
		}
		f.complete(nil, tag.Tag{}, 1, nil)
		f.Release()
	}()
	f.Release()
}

// TestFutureInlineReleaseNeverFiresRecycledCallback races complete against
// an OnDone whose callback is the future's sole owner: it Releases the
// future and registers a callback on the next operation's future, which the
// pool usually hands back as the very same object. Whichever side fires the
// first callback, the second must fire only from its own operation's
// completion — never from the first operation's complete collecting it off
// the recycled future.
func TestFutureInlineReleaseNeverFiresRecycledCallback(t *testing.T) {
	for i := 0; i < 2000; i++ {
		f := newFuture(1)
		var next *Future
		var nextCompleted, nextFired atomic.Bool
		start, completed := make(chan struct{}), make(chan struct{})
		go func() {
			<-start
			f.complete(nil, tag.Tag{}, 1, nil)
			close(completed)
		}()
		close(start)
		f.OnDone(func(ff *Future, _ any) {
			ff.Release()
			next = newFuture(2)
			next.OnDone(func(*Future, any) {
				if !nextCompleted.Load() {
					t.Error("callback fired before its own operation completed")
				}
				nextFired.Store(true)
			}, nil)
		}, nil)
		<-completed
		if next == nil {
			t.Fatal("first callback never fired")
		}
		nextCompleted.Store(true)
		next.complete(nil, tag.Tag{}, 1, nil)
		if !nextFired.Load() {
			t.Fatal("second callback never fired")
		}
		next.Release()
		if t.Failed() {
			return
		}
	}
}
