package sim

import "container/heap"

// newHeapEngine returns an engine running on the reference binary heap
// instead of the calendar queue.
func newHeapEngine() *Engine {
	e := NewEngine()
	e.q = newHeapQueue()
	return e
}

// queueKinds names both pending-set implementations, for tests and
// benchmarks that run the same body on each.
var queueKinds = []struct {
	name string
	mk   func() *Engine
}{
	{"calendar", NewEngine},
	{"heap", newHeapEngine},
}

// heapQueue adapts eventHeap to the pendingQueue interface. It is the
// engine's original O(log n) core, kept as the reference the calendar
// queue is differentially tested against.
type heapQueue struct {
	h eventHeap
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (q *heapQueue) push(ev *Event) { heap.Push(&q.h, ev) }

func (q *heapQueue) pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*Event)
}

func (q *heapQueue) peek() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) len() int { return len(q.h) }

func (q *heapQueue) compact() int {
	kept := q.h[:0]
	for _, ev := range q.h {
		if ev.canceled {
			ev.inQueue = false
			continue
		}
		kept = append(kept, ev)
	}
	removed := len(q.h) - len(kept)
	for i := len(kept); i < len(q.h); i++ {
		q.h[i] = nil
	}
	q.h = kept
	heap.Init(&q.h)
	return removed
}

func (q *heapQueue) each(f func(*Event)) {
	for _, ev := range q.h {
		f(ev)
	}
}
