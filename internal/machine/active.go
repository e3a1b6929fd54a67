package machine

import (
	"fmt"
	"math/bits"
)

// Active-node set (docs/PERF.md, "Active-node set"). The node phase
// visits only the nodes that can do something this cycle instead of
// sweeping every node to test its parking flags. parked, wakeAt and
// needWake stay the single source of truth (they are what checkpoints
// carry); the set is derived from them and kept exact at every change:
//
//   - run: bit i is set iff node i is runnable, !parked[i] || needWake[i];
//   - wheel: a 64-bucket hashed timer wheel holding every parked node
//     with a finite wakeAt, in bucket wakeAt mod 64. At cycle c the due
//     entries of bucket c mod 64 move into run; entries for a later lap
//     stay put.
//
// The set is owned per slab, a contiguous range of node ids with its
// own words: the sequential loop is one slab over every node, and the
// parallel engine registers its shards' node ranges (SetNodeSlabs), so
// no word is ever shared between two goroutines and the step path
// needs no atomics.

// wheelSlots is the timer wheel's bucket count (a power of two).
const wheelSlots = 64

// slab is the active-node set of nodes [lo, hi). Bit j of a bitset
// stands for node lo+j.
type slab struct {
	lo, hi int
	run    []uint64          // runnable nodes
	wheel  []uint64          // the buckets' bitsets, one after another
	cnt    [wheelSlots]int32 // entries per bucket
	busy   uint64            // bit b set iff cnt[b] > 0
}

func newSlab(lo, hi int) *slab {
	nw := (hi - lo + 63) / 64
	return &slab{lo: lo, hi: hi, run: make([]uint64, nw), wheel: make([]uint64, wheelSlots*nw)}
}

// bucket returns wheel bucket b's bitset.
func (s *slab) bucket(b int) []uint64 {
	nw := len(s.run)
	return s.wheel[b*nw : (b+1)*nw]
}

func (s *slab) setRun(j int) { s.run[j>>6] |= 1 << uint(j&63) }

// addWheel files node lo+j, parked until cycle at, in bucket at mod 64.
func (s *slab) addWheel(j int, at int64) {
	b := int(at & (wheelSlots - 1))
	s.bucket(b)[j>>6] |= 1 << uint(j&63)
	s.cnt[b]++
	s.busy |= 1 << uint(b)
}

// dropWheel removes node lo+j, filed under cycle at, if it is still in
// the wheel (a node released as due is already out).
func (s *slab) dropWheel(j int, at int64) {
	b := int(at & (wheelSlots - 1))
	w := &s.bucket(b)[j>>6]
	bit := uint64(1) << uint(j&63)
	if *w&bit == 0 {
		return
	}
	*w &^= bit
	if s.cnt[b]--; s.cnt[b] == 0 {
		s.busy &^= 1 << uint(b)
	}
}

// release moves the entries of bucket cycle mod 64 that are due by
// cycle into the runnable set.
func (s *slab) release(wakeAt []int64, cycle int64) {
	b := int(cycle & (wheelSlots - 1))
	bucket := s.bucket(b)
	for w, word := range bucket {
		for word != 0 {
			k := uint(bits.TrailingZeros64(word))
			word &= word - 1
			if wakeAt[s.lo+(w<<6|int(k))] <= cycle {
				bucket[w] &^= 1 << k
				s.run[w] |= 1 << k
				s.cnt[b]--
			}
		}
	}
	if s.cnt[b] == 0 {
		s.busy &^= 1 << uint(b)
	}
}

// nextWake returns the earliest wakeAt among the wheel's entries, or
// NoEvent when there is none; with idleOnly, runnable entries (parked
// nodes with a pending external wake) are left out. Every entry wakes
// after cycle, so the bucket k places past (cycle+1) mod 64 holds no
// wake earlier than cycle+1+k. The busy buckets are scanned in that
// order, and the scan stops after bucket k once the best wake found is
// at most cycle+1+k, which no later bucket can beat.
func (s *slab) nextWake(wakeAt []int64, cycle int64, idleOnly bool) int64 {
	best := NoEvent
	start := int((cycle + 1) & (wheelSlots - 1))
	for busy := bits.RotateLeft64(s.busy, -start); busy != 0; busy &= busy - 1 {
		k := bits.TrailingZeros64(busy)
		b := (start + k) & (wheelSlots - 1)
		for w, word := range s.bucket(b) {
			if idleOnly {
				word &^= s.run[w]
			}
			for ; word != 0; word &= word - 1 {
				if at := wakeAt[s.lo+(w<<6|bits.TrailingZeros64(word))]; at < best {
					best = at
				}
			}
		}
		if best <= cycle+1+int64(k) {
			break
		}
	}
	return best
}

// SetNodeSlabs partitions the active-node set into slabs starting at
// the given node ids (ascending, the first 0); nil selects one slab
// over every node. A slab's set is only ever touched by the goroutine
// stepping it, so the parallel engine registers its shards' node
// ranges here on attach and restores the single slab on stop. Must be
// called between cycles; the set is rebuilt from the parking state.
func (m *Machine) SetNodeSlabs(starts []int) {
	n := len(m.Nodes)
	if len(starts) == 0 {
		starts = []int{0}
	}
	if starts[0] != 0 {
		panic(fmt.Sprintf("machine: first node slab starts at %d, not 0", starts[0]))
	}
	m.slabs = m.slabs[:0]
	for k, lo := range starts {
		hi := n
		if k+1 < len(starts) {
			hi = starts[k+1]
		}
		if hi <= lo || hi > n {
			panic(fmt.Sprintf("machine: node slab [%d, %d) out of order or outside %d nodes", lo, hi, n))
		}
		for i := lo; i < hi; i++ {
			m.slabOf[i] = int32(k)
		}
		m.slabs = append(m.slabs, newSlab(lo, hi))
	}
	m.rebuildActive()
}

// rebuildActive recomputes every slab's set from parked, wakeAt and
// needWake: on restore, after a bulk unpark, and when the partition
// changes.
func (m *Machine) rebuildActive() {
	for _, s := range m.slabs {
		clear(s.run)
		clear(s.wheel)
		s.cnt = [wheelSlots]int32{}
		s.busy = 0
		for i := s.lo; i < s.hi; i++ {
			if !m.parked[i] || m.needWake[i] {
				s.setRun(i - s.lo)
			}
			if m.parked[i] && m.wakeAt[i] != NoEvent {
				s.addWheel(i-s.lo, m.wakeAt[i])
			}
		}
	}
}

// slabAt returns the slab holding node i and i's bit index within it.
func (m *Machine) slabAt(i int) (*slab, int) {
	s := m.slabs[m.slabOf[i]]
	return s, i - s.lo
}

// unpark returns parked node i to the active set, caught up to
// caughtUpTo, outside the stepping sweep (the per-node sync hook).
func (m *Machine) unpark(i int) {
	m.Nodes[i].SkipTo(m.caughtUpTo)
	s, j := m.slabAt(i)
	if at := m.wakeAt[i]; at != NoEvent {
		s.dropWheel(j, at)
	}
	s.setRun(j)
	m.parked[i] = false
	m.needWake[i] = false
	m.nParked.Add(-1)
}

// slabsIn returns the slabs that make up nodes [lo, hi), which must
// begin and end on slab boundaries.
func (m *Machine) slabsIn(lo, hi int) []*slab {
	if lo >= hi {
		return nil
	}
	first, last := int(m.slabOf[lo]), int(m.slabOf[hi-1])
	if m.slabs[first].lo != lo || m.slabs[last].hi != hi {
		panic(fmt.Sprintf("machine: node range [%d, %d) does not fall on node slab boundaries", lo, hi))
	}
	return m.slabs[first : last+1]
}

// stepSlab steps the runnable nodes of s through the current cycle in
// ascending id order, waking the due ones and parking those whose next
// event lies beyond the next cycle. It returns how many nodes it left
// unparked and the change in the parked count.
func (m *Machine) stepSlab(s *slab, fast bool, cycle int64) (live int, parkDelta int64) {
	if s.busy&(1<<uint(cycle&(wheelSlots-1))) != 0 {
		s.release(m.wakeAt, cycle)
	}
	for w := range s.run {
		word := s.run[w]
		for word != 0 {
			b := uint(bits.TrailingZeros64(word))
			j := w<<6 | int(b)
			i := s.lo + j
			if m.parked[i] {
				// Due, or woken early by a delivery or host injection:
				// an early wake leaves its wheel entry behind.
				if at := m.wakeAt[i]; at != NoEvent {
					s.dropWheel(j, at)
				}
				m.Nodes[i].SkipTo(cycle - 1)
				m.parked[i] = false
				m.needWake[i] = false
				parkDelta--
			}
			n := m.Nodes[i]
			n.Step()
			ne := cycle // with the fast path off, every node stays live
			if fast {
				ne = n.NextEvent()
			}
			if ne > cycle+1 {
				m.parked[i] = true
				m.wakeAt[i] = ne
				m.needWake[i] = false
				s.run[w] &^= 1 << b
				if ne != NoEvent {
					s.addWheel(j, ne)
				}
				parkDelta++
			} else {
				live++
			}
			// Re-read the word rather than the copy: a node that this
			// step woke later in the slab is visited in this sweep, as
			// the full sweep would have.
			word = s.run[w] & (^uint64(1) << b)
		}
	}
	return live, parkDelta
}
