// Package heapq is the binary min-heap behind the event scheduler, the
// scenario's run heap and the workload generator's stream heap. It works
// on a plain slice, like the standard library's heap package, but is
// generic, so pushing a struct does not box it into an interface value.
//
// Pop order is deterministic only under a strict total order: callers
// break every tie in less (a sequence number, an id).
package heapq

// Push adds x to the heap h ordered by less and returns the grown heap.
func Push[T any](h []T, x T, less func(a, b T) bool) []T {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// Pop removes the least element of the non-empty heap h and returns it
// with the shrunk heap. The vacated slot is zeroed, so the backing array
// keeps no reference to a popped pointer.
func Pop[T any](h []T, less func(a, b T) bool) (T, []T) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	var zero T
	h[last] = zero
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && less(h[l], h[small]) {
			small = l
		}
		if r < len(h) && less(h[r], h[small]) {
			small = r
		}
		if small == i {
			return top, h
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
