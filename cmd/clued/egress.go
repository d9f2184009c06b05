package main

// Egress groups per-item output by destination key so a forwarding loop
// handling a received batch can hand each downstream peer one batched
// write instead of one syscall per item. The loop Adds each produced
// frame under its next-hop key while handling the batch, then Flushes
// once, and the flush callback sees every key's frames contiguously.
//
// All storage is reused across batches: after the first few batches the
// steady state allocates nothing. An Egress is single-goroutine; each
// copy of the forwarding loop owns one.
type Egress[K comparable, T any] struct {
	flush func(K, []T)
	max   int
	byKey map[K][]T
	order []K // keys with pending items, in first-Add order
}

// NewEgress returns an Egress delivering batches to flush. max bounds a
// single key's batch: adding the max-th item flushes that key
// immediately, so a buffered frame never waits behind more than max-1
// others. max <= 0 means unbounded (explicit Flush only).
func NewEgress[K comparable, T any](max int, flush func(K, []T)) *Egress[K, T] {
	return &Egress[K, T]{
		flush: flush,
		max:   max,
		byKey: make(map[K][]T),
	}
}

// Add buffers v under k, flushing k's batch if it reaches the bound.
func (e *Egress[K, T]) Add(k K, v T) {
	buf := e.byKey[k]
	if len(buf) == 0 {
		e.order = append(e.order, k)
	}
	buf = append(buf, v)
	if e.max > 0 && len(buf) >= e.max {
		e.flush(k, buf)
		e.byKey[k] = buf[:0]
		e.dropKey(k)
		return
	}
	e.byKey[k] = buf
}

// Flush delivers every pending batch, in first-Add key order, and
// retains all capacity for the next batch.
func (e *Egress[K, T]) Flush() {
	for _, k := range e.order {
		if buf := e.byKey[k]; len(buf) > 0 {
			e.flush(k, buf)
			e.byKey[k] = buf[:0]
		}
	}
	e.order = e.order[:0]
}

// Pending returns the number of buffered items across all keys.
func (e *Egress[K, T]) Pending() int {
	n := 0
	for _, buf := range e.byKey {
		n += len(buf)
	}
	return n
}

// dropKey removes k from the pending-key order after an auto-flush.
func (e *Egress[K, T]) dropKey(k K) {
	for i, key := range e.order {
		if key == k {
			e.order = append(e.order[:i], e.order[i+1:]...)
			return
		}
	}
}
