package hw

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQueueBasic(t *testing.T) {
	q := NewQueue[int](3)
	if !q.Empty() || q.Full() || q.Len() != 0 || q.Cap() != 3 {
		t.Fatalf("fresh queue state wrong: len=%d cap=%d", q.Len(), q.Cap())
	}
	for i := 1; i <= 3; i++ {
		if !q.Push(i) {
			t.Fatalf("Push(%d) failed on non-full queue", i)
		}
	}
	if !q.Full() {
		t.Error("queue should be full after 3 pushes")
	}
	if q.Push(4) {
		t.Error("Push succeeded on full queue")
	}
	if v, ok := q.Peek(); !ok || v != 1 {
		t.Errorf("Peek = %d,%v, want 1,true", v, ok)
	}
	for i := 1; i <= 3; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Errorf("Pop = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop succeeded on empty queue")
	}
	if _, ok := q.Peek(); ok {
		t.Error("Peek succeeded on empty queue")
	}
}

func TestQueueWraparound(t *testing.T) {
	q := NewQueue[int](4)
	next, expect := 0, 0
	for round := 0; round < 100; round++ {
		for q.Push(next) {
			next++
		}
		for i := 0; i < 2; i++ {
			v, ok := q.Pop()
			if !ok || v != expect {
				t.Fatalf("round %d: Pop = %d,%v, want %d", round, v, ok, expect)
			}
			expect++
		}
	}
}

func TestQueueReset(t *testing.T) {
	q := NewQueue[string](2)
	q.Push("a")
	q.Push("b")
	q.Reset()
	if !q.Empty() {
		t.Error("queue not empty after Reset")
	}
	if !q.Push("c") {
		t.Error("Push failed after Reset")
	}
	if v, _ := q.Pop(); v != "c" {
		t.Errorf("Pop after reset = %q, want c", v)
	}
}

func TestQueueInvalidCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewQueue(0) did not panic")
		}
	}()
	NewQueue[int](0)
}

// Property: a Queue behaves exactly like a slice-based FIFO under a random
// push/pop interleaving, including full/empty refusals.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(ops []bool, capSeed uint8) bool {
		capacity := int(capSeed%16) + 1
		q := NewQueue[int](capacity)
		var ref []int
		next := 0
		for _, push := range ops {
			if push {
				got := q.Push(next)
				want := len(ref) < capacity
				if got != want {
					return false
				}
				if want {
					ref = append(ref, next)
				}
				next++
			} else {
				v, ok := q.Pop()
				if ok != (len(ref) > 0) {
					return false
				}
				if ok {
					if v != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			}
			if q.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPriorityEncoder(t *testing.T) {
	tests := []struct {
		in   []bool
		want int
	}{
		{nil, -1},
		{[]bool{false, false}, -1},
		{[]bool{true}, 0},
		{[]bool{false, true, true}, 1},
		{[]bool{false, false, false, true}, 3},
	}
	for _, tt := range tests {
		if got := PriorityEncoder(tt.in); got != tt.want {
			t.Errorf("PriorityEncoder(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestArbiterRoundRobin(t *testing.T) {
	a := NewArbiter(4)
	all := []bool{true, true, true, true}
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, a.Grant(all))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant sequence = %v, want %v", got, want)
		}
	}
}

func TestArbiterSkipsIdle(t *testing.T) {
	a := NewArbiter(4)
	if g := a.Grant([]bool{false, false, true, false}); g != 2 {
		t.Errorf("grant = %d, want 2", g)
	}
	// pointer advanced past 2; with 0 and 2 requesting, 3 is checked first
	// then wraps to 0.
	if g := a.Grant([]bool{true, false, true, false}); g != 0 {
		t.Errorf("grant = %d, want 0 (wrap)", g)
	}
	if g := a.Grant([]bool{false, false, false, false}); g != -1 {
		t.Errorf("grant with no requests = %d, want -1", g)
	}
}

// TestIdleGrantKeepsRotation pins the property the pulse pipeline's
// quiet-span fast-forward relies on: Grant calls with no request
// asserted leave the next grant exactly where it was, and the priority
// encoder carries no state between calls.
func TestIdleGrantKeepsRotation(t *testing.T) {
	const width = 5
	all := []bool{true, true, true, true, true}
	idle := make([]bool, width)
	for start := 0; start < width; start++ {
		a, ref := NewArbiter(width), NewArbiter(width)
		for i := 0; i < start; i++ {
			a.Grant(all)
			ref.Grant(all)
		}
		for i := 0; i < 7; i++ { // 7 is coprime to the width
			if g := a.Grant(idle); g != -1 {
				t.Fatalf("idle grant = %d, want -1", g)
			}
		}
		for i := 0; i < 2*width; i++ {
			if g, want := a.Grant(all), ref.Grant(all); g != want {
				t.Fatalf("after %d grants and 7 idle ones: grant %d = %d, want %d", start, i, g, want)
			}
		}
	}
	req := []bool{false, true, false, true, true}
	for i := 0; i < 3; i++ {
		if g := PriorityEncoder(req); g != 1 {
			t.Fatalf("PriorityEncoder call %d = %d, want 1", i, g)
		}
		PriorityEncoder(all)
	}
}

// Property: over any request pattern with at least one asserted line, the
// arbiter never starves: each persistently requesting line is granted at
// least once every width grants.
func TestArbiterNoStarvation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const width = 8
	a := NewArbiter(width)
	persistent := 3 // line 3 always requests
	sinceGrant := 0
	for step := 0; step < 10000; step++ {
		req := make([]bool, width)
		for i := range req {
			req[i] = rng.Intn(2) == 0
		}
		req[persistent] = true
		g := a.Grant(req)
		if g == persistent {
			sinceGrant = 0
		} else {
			sinceGrant++
			if sinceGrant > width {
				t.Fatalf("line %d starved for %d grants at step %d", persistent, sinceGrant, step)
			}
		}
	}
}

func TestTagPool(t *testing.T) {
	p := NewTagPool(4)
	if p.Available() != 4 || p.Outstanding() != 0 {
		t.Fatalf("fresh pool: avail=%d out=%d", p.Available(), p.Outstanding())
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		tag, ok := p.Acquire()
		if !ok {
			t.Fatalf("Acquire %d failed", i)
		}
		if seen[tag] {
			t.Fatalf("duplicate tag %d", tag)
		}
		if tag < 0 || tag >= 4 {
			t.Fatalf("tag %d out of range", tag)
		}
		seen[tag] = true
	}
	if _, ok := p.Acquire(); ok {
		t.Error("Acquire succeeded with no free tags")
	}
	p.Release(2)
	if tag, ok := p.Acquire(); !ok || tag != 2 {
		t.Errorf("reacquire = %d,%v, want 2,true", tag, ok)
	}
}

func TestTagPoolDoubleReleasePanics(t *testing.T) {
	p := NewTagPool(2)
	tag, _ := p.Acquire()
	p.Release(tag)
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	p.Release(tag)
}

// Property: tags are always unique among outstanding ones under random
// acquire/release traffic.
func TestTagPoolUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewTagPool(32)
	var held []int
	for step := 0; step < 20000; step++ {
		if rng.Intn(2) == 0 {
			tag, ok := p.Acquire()
			if ok {
				for _, h := range held {
					if h == tag {
						t.Fatalf("tag %d handed out twice", tag)
					}
				}
				held = append(held, tag)
			} else if len(held) != 32 {
				t.Fatalf("Acquire failed with only %d outstanding", len(held))
			}
		} else if len(held) > 0 {
			i := rng.Intn(len(held))
			p.Release(held[i])
			held = append(held[:i], held[i+1:]...)
		}
		if p.Outstanding() != len(held) {
			t.Fatalf("Outstanding=%d, held=%d", p.Outstanding(), len(held))
		}
	}
}
