package comm

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestSendRecv(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for dst := 1; dst < c.Size(); dst++ {
				c.Send(dst, 7, []byte(fmt.Sprintf("hello %d", dst)))
			}
		} else {
			got := c.Recv(0, 7)
			want := fmt.Sprintf("hello %d", c.Rank())
			if string(got) != want {
				t.Errorf("rank %d: got %q, want %q", c.Rank(), got, want)
			}
		}
	})
	st := w.TotalStats()
	if st.Messages != 3 {
		t.Errorf("messages = %d, want 3", st.Messages)
	}
}

// TestLocalRanks checks every rank sees the width of the span its process
// hosts: the whole world under Run, the span under RunRanks.
func TestLocalRanks(t *testing.T) {
	w := NewWorld(4)
	defer w.Close()
	var all, span [4]atomic.Int32
	w.Run(func(c *Comm) { all[c.Rank()].Store(int32(c.LocalRanks())) })
	w.RunRanks(1, 3, func(c *Comm) { span[c.Rank()].Store(int32(c.LocalRanks())) })
	for r := range all {
		if got := all[r].Load(); got != 4 {
			t.Errorf("rank %d under Run: LocalRanks = %d, want 4", r, got)
		}
		want := int32(0) // ranks outside the span do not run
		if r == 1 || r == 2 {
			want = 2
		}
		if got := span[r].Load(); got != want {
			t.Errorf("rank %d under RunRanks(1, 3): recorded %d, want %d", r, got, want)
		}
	}
}

func TestRecvOutOfOrderTags(t *testing.T) {
	// A receiver asking for tag B first must still get tag A later.
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("first"))
			c.Send(1, 2, []byte("second"))
		} else {
			if got := c.Recv(0, 2); string(got) != "second" {
				t.Errorf("tag 2: got %q", got)
			}
			if got := c.Recv(0, 1); string(got) != "first" {
				t.Errorf("tag 1: got %q", got)
			}
		}
	})
}

func TestRecvFIFOPerTag(t *testing.T) {
	w := NewWorld(2)
	const n = 100
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, []byte{byte(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := c.Recv(0, 3); got[0] != byte(i) {
					t.Fatalf("message %d: got %d", i, got[0])
				}
			}
		}
	})
}

func TestRecvAny(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			seen := make(map[int]bool)
			for i := 1; i < c.Size(); i++ {
				src, data := c.RecvAny(9)
				if seen[src] {
					t.Errorf("duplicate source %d", src)
				}
				seen[src] = true
				if string(data) != fmt.Sprintf("from %d", src) {
					t.Errorf("bad payload from %d: %q", src, data)
				}
			}
		} else {
			c.Send(0, 9, []byte(fmt.Sprintf("from %d", c.Rank())))
		}
	})
}

func TestBarrier(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 12, 16} {
		w := NewWorld(p)
		var phase atomic.Int64
		w.Run(func(c *Comm) {
			phase.Add(1)
			c.Barrier()
			if got := phase.Load(); got != int64(p) {
				t.Errorf("P=%d rank %d: left barrier with %d/%d arrivals", p, c.Rank(), got, p)
			}
			c.Barrier()
		})
	}
}

func TestAllgatherv(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			own := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1)
			blocks := c.Allgatherv(own)
			if len(blocks) != p {
				t.Fatalf("got %d blocks", len(blocks))
			}
			for q, b := range blocks {
				want := bytes.Repeat([]byte{byte(q)}, q+1)
				if !bytes.Equal(b, want) {
					t.Errorf("P=%d rank %d: block %d = %v, want %v", p, c.Rank(), q, b, want)
				}
			}
		})
	}
}

func TestAllgatherInt64AndReduce(t *testing.T) {
	const p = 9
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		vals := c.AllgatherInt64(int64(c.Rank() * c.Rank()))
		for q, v := range vals {
			if v != int64(q*q) {
				t.Errorf("rank %d: vals[%d] = %d", c.Rank(), q, v)
			}
		}
		wantSum := int64(0)
		for q := 0; q < p; q++ {
			wantSum += int64(q * q)
		}
		if got := c.AllreduceSumInt64(int64(c.Rank() * c.Rank())); got != wantSum {
			t.Errorf("sum = %d, want %d", got, wantSum)
		}
		if got := c.AllreduceMaxInt64(int64(c.Rank())); got != p-1 {
			t.Errorf("max = %d, want %d", got, p-1)
		}
	})
}

func TestPhaseStats(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		c.SetPhase("a")
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 10))
		} else {
			c.Recv(0, 1)
		}
		c.SetPhase("b")
		if c.Rank() == 0 {
			c.Send(1, 2, make([]byte, 100))
		} else {
			c.Recv(0, 2)
		}
	})
	if st := w.PhaseStats("a"); st.Messages != 1 || st.Bytes != 10 {
		t.Errorf("phase a stats %+v", st)
	}
	if st := w.PhaseStats("b"); st.Messages != 1 || st.Bytes != 100 {
		t.Errorf("phase b stats %+v", st)
	}
	if st := w.TotalStats(); st.Messages != 2 || st.Bytes != 110 {
		t.Errorf("total stats %+v", st)
	}
}

func TestMixedCollectivesAndP2P(t *testing.T) {
	// Interleaving p2p with collectives must not confuse tag matching.
	const p = 6
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		next := (c.Rank() + 1) % p
		prev := (c.Rank() - 1 + p) % p
		c.Send(next, 5, []byte{byte(c.Rank())})
		sum := c.AllreduceSumInt64(1)
		if sum != p {
			t.Errorf("sum = %d", sum)
		}
		got := c.Recv(prev, 5)
		if got[0] != byte(prev) {
			t.Errorf("rank %d: got %d from %d", c.Rank(), got[0], prev)
		}
		c.Barrier()
	})
}

func TestByteHelpersRoundTrip(t *testing.T) {
	b := AppendInt64(nil, -42)
	b = AppendInt32(b, 7)
	b = AppendInt32s(b, []int32{1, -2, 3})
	v64, off := Int64At(b, 0)
	if v64 != -42 {
		t.Errorf("int64 = %d", v64)
	}
	v32, off := Int32At(b, off)
	if v32 != 7 {
		t.Errorf("int32 = %d", v32)
	}
	vs, off := Int32sAt(b, off)
	if len(vs) != 3 || vs[0] != 1 || vs[1] != -2 || vs[2] != 3 {
		t.Errorf("int32s = %v", vs)
	}
	if off != len(b) {
		t.Errorf("offset %d != length %d", off, len(b))
	}
}

func TestWatchdogCatchesDeadlock(t *testing.T) {
	w := NewWorld(2)
	w.SetTimeout(200 * time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("watchdog did not fire on a deadlocked world")
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 1) // never sent
		}
	})
}

func TestWatchdogAllowsCompletion(t *testing.T) {
	w := NewWorld(3)
	w.SetTimeout(5 * time.Second)
	w.Run(func(c *Comm) { c.Barrier() })
}

func TestRunPropagatesPanics(t *testing.T) {
	w := NewWorld(4)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("rank panic was swallowed")
		}
		if s, ok := p.(string); !ok || !bytes.Contains([]byte(s), []byte("boom")) {
			t.Fatalf("unexpected panic payload %v", p)
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
	})
}

func TestConcurrentWorldsAreIsolated(t *testing.T) {
	// Two worlds running interleaved must not cross-deliver messages.
	done := make(chan struct{}, 2)
	for w := 0; w < 2; w++ {
		go func(tag int) {
			defer func() { done <- struct{}{} }()
			world := NewWorld(3)
			world.Run(func(c *Comm) {
				next := (c.Rank() + 1) % 3
				c.Send(next, tag, []byte{byte(tag)})
				got := c.Recv((c.Rank()+2)%3, tag)
				if got[0] != byte(tag) {
					t.Errorf("world %d: cross-delivery", tag)
				}
			})
		}(w + 1)
	}
	<-done
	<-done
}
