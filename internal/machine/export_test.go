package machine

import (
	"fmt"
	"math/bits"
)

// ActiveSetErr checks the active-node set against the parking state it
// is derived from: the slabs tile the node ids, every runnable bit is
// set iff its node is unparked or has a pending external wake, every
// parked node with a finite wake sits in the wheel bucket of its wake
// cycle and nowhere else, nothing else is set, the bucket counts and
// busy mask agree with the bits, and no parked node's wake has lapsed.
func (m *Machine) ActiveSetErr() error {
	n := len(m.Nodes)
	parked := int64(0)
	next := 0
	for k, s := range m.slabs {
		if s.lo != next || s.hi <= s.lo || s.hi > n {
			return fmt.Errorf("slab %d is [%d, %d), want it to start at %d and end by %d", k, s.lo, s.hi, next, n)
		}
		next = s.hi
		var cnt [wheelSlots]int32
		bucketOf := make([]int, len(s.run)*64)
		for j := range bucketOf {
			bucketOf[j] = -1
		}
		for b := 0; b < wheelSlots; b++ {
			for w, word := range s.bucket(b) {
				for ; word != 0; word &= word - 1 {
					j := w<<6 | bits.TrailingZeros64(word)
					if bucketOf[j] >= 0 {
						return fmt.Errorf("node %d is in wheel buckets %d and %d", s.lo+j, bucketOf[j], b)
					}
					bucketOf[j] = b
					cnt[b]++
				}
			}
		}
		for j := range bucketOf {
			i := s.lo + j
			run := s.run[j>>6]&(1<<uint(j&63)) != 0
			bucket := bucketOf[j]
			if i >= s.hi {
				if run || bucket >= 0 {
					return fmt.Errorf("slab %d [%d, %d) has a bit set for node %d beyond its end", k, s.lo, s.hi, i)
				}
				continue
			}
			if int(m.slabOf[i]) != k {
				return fmt.Errorf("node %d maps to slab %d, lies in slab %d", i, m.slabOf[i], k)
			}
			if m.parked[i] {
				parked++
			}
			if want := !m.parked[i] || m.needWake[i]; run != want {
				return fmt.Errorf("node %d: runnable bit %v, parked %v, needWake %v", i, run, m.parked[i], m.needWake[i])
			}
			timed := m.parked[i] && m.wakeAt[i] != NoEvent
			switch {
			case timed && bucket != int(m.wakeAt[i]&(wheelSlots-1)):
				return fmt.Errorf("node %d parked until %d is in wheel bucket %d", i, m.wakeAt[i], bucket)
			case !timed && bucket >= 0:
				return fmt.Errorf("node %d (parked %v, wakeAt %d) is in wheel bucket %d", i, m.parked[i], m.wakeAt[i], bucket)
			}
			if m.parked[i] && m.wakeAt[i] <= m.caughtUpTo {
				return fmt.Errorf("parked node %d wakes at %d, not after completed cycle %d", i, m.wakeAt[i], m.caughtUpTo)
			}
		}
		for b := range cnt {
			if cnt[b] != s.cnt[b] || (cnt[b] > 0) != (s.busy&(1<<uint(b)) != 0) {
				return fmt.Errorf("slab %d bucket %d holds %d entries, counted %d, busy bit %v",
					k, b, cnt[b], s.cnt[b], s.busy&(1<<uint(b)) != 0)
			}
		}
	}
	if next != n {
		return fmt.Errorf("slabs end at node %d of %d", next, n)
	}
	if got := m.nParked.Load(); got != parked {
		return fmt.Errorf("nParked %d, %d nodes parked", got, parked)
	}
	return nil
}

// NodeSlabCount returns how many slabs the active-node set is split into.
func (m *Machine) NodeSlabCount() int { return len(m.slabs) }

// WheelEntries returns how many parked nodes wait in the timer wheels.
func (m *Machine) WheelEntries() int {
	total := 0
	for _, s := range m.slabs {
		for _, c := range s.cnt {
			total += int(c)
		}
	}
	return total
}

// TimedParked lists the parked nodes waiting in the timer wheels
// without a pending external wake, in id order.
func (m *Machine) TimedParked() []int {
	var out []int
	for i := range m.parked {
		if m.parked[i] && !m.needWake[i] && m.wakeAt[i] != NoEvent {
			out = append(out, i)
		}
	}
	return out
}
