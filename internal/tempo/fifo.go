package tempo

// fifo is a slice-backed queue that keeps its array: the slots of dropped
// elements are reused once the queue empties, or — when a push finds the
// array full and mostly dropped — by sliding the live elements down. A
// queue whose length follows the in-flight window therefore settles on
// one array instead of allocating as it crawls forward. Dropped slots
// are not zeroed: it is meant for elements without pointers.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) push(x T) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, x)
}

// live returns the queued elements, oldest first. The slice aliases the
// queue: it is valid until the next push or drop.
func (q *fifo[T]) live() []T { return q.buf[q.head:] }

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// drop removes the n oldest elements.
func (q *fifo[T]) drop(n int) {
	if q.head += n; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}
