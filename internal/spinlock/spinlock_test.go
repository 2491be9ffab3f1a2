package spinlock

import (
	"sync"
	"testing"
	"time"
)

func TestHookOrderAndComponent(t *testing.T) {
	var events []string
	l := New("host", &Hooks{
		Acquired:  func(c string) { events = append(events, "acq:"+c) },
		Releasing: func(c string) { events = append(events, "rel:"+c) },
	})
	l.Lock()
	events = append(events, "critical")
	l.Unlock()

	want := []string{"acq:host", "critical", "rel:host"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestHooksRunUnderLock(t *testing.T) {
	// The Acquired hook must observe mutual exclusion: a counter
	// incremented non-atomically inside the hook stays consistent
	// under contention (checked by -race too).
	var count int
	l := New("vm", &Hooks{
		Acquired:  func(string) { count++ },
		Releasing: func(string) { count++ },
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.Lock()
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if count != 8*200*2 {
		t.Errorf("count = %d, want %d", count, 8*200*2)
	}
}

func TestUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unlock of unheld lock did not panic")
		}
	}()
	New("pkvm", nil).Unlock()
}

func TestNilHooks(t *testing.T) {
	l := New("hyp", nil)
	l.Lock()
	if !l.Held() {
		t.Error("Held() false while held")
	}
	l.Unlock()
	if l.Held() {
		t.Error("Held() true after unlock")
	}
	if l.Component() != "hyp" {
		t.Error("component name lost")
	}
}

// contend holds l for hold while another goroutine tries to take it.
func contend(l *Lock, hold time.Duration) {
	l.Lock()
	done := make(chan struct{})
	go func() {
		l.Lock()
		l.Unlock()
		close(done)
	}()
	time.Sleep(hold)
	l.Unlock()
	<-done
}

// TestWaitObservedOnlyForNamedLocks: a contended acquisition of a named
// lock observes its wait; a zero-value lock stays uninstrumented. The
// unnamed lock is held as long as the named one had to be for its
// waiter to find it taken.
func TestWaitObservedOnlyForNamedLocks(t *testing.T) {
	h := waitHist(0)
	before := h.Count()
	named := New("test", nil)
	hold := time.Millisecond
	for ; h.Count() == before && hold <= 256*time.Millisecond; hold *= 2 {
		contend(named, hold)
	}
	if h.Count() == before {
		t.Fatal("contended named lock observed no wait")
	}
	before = h.Count()
	var unnamed Lock
	contend(&unnamed, hold)
	if d := h.Count() - before; d != 0 {
		t.Errorf("zero-value lock observed %d waits, want none", d)
	}
}
