package eventq

// refHeap is the reference the differential tests and the fuzz target
// compare the calendar queue against: the 4-ary implicit heap the
// simulator ran on before the calendar queue, kept test-only. It honors
// the same (Time, seq) contract, so identical push sequences must
// produce identical pop sequences.
type refHeap struct {
	heap []Event
	seq  uint64
}

func (h *refHeap) Len() int { return len(h.heap) }

func (h *refHeap) Push(e Event) {
	e.seq = h.seq
	h.seq++
	h.heap = append(h.heap, e)
	h.up(len(h.heap) - 1)
}

func (h *refHeap) Pop() Event {
	s := h.heap
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	h.heap = s[:last]
	if last > 0 {
		h.down(0)
	}
	top.seq = 0
	return top
}

func (h *refHeap) Peek() Event {
	e := h.heap[0]
	e.seq = 0
	return e
}

func (h *refHeap) Reset() {
	h.heap = h.heap[:0]
	h.seq = 0
}

func (h *refHeap) less(i, j int) bool { return less(&h.heap[i], &h.heap[j]) }

func (h *refHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			return
		}
		h.heap[i], h.heap[parent] = h.heap[parent], h.heap[i]
		i = parent
	}
}

func (h *refHeap) down(i int) {
	n := len(h.heap)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h.less(c, best) {
				best = c
			}
		}
		if !h.less(best, i) {
			return
		}
		h.heap[i], h.heap[best] = h.heap[best], h.heap[i]
		i = best
	}
}
