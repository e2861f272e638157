package simulator

// ringQueues is the per-link FIFO storage of the simulator: one flat
// preallocated buffer holding every link's queue as a fixed-stride ring.
// The seed implementation kept a [][]packet and popped with
// `q = append(q, pk)` / `q = q[1:]`, which allocates on growth, pins
// popped packets behind the live slice window, and re-allocates the whole
// window every QueueCap pops; a ring in a flat array does none of that,
// and push/pop are branch-plus-store operations with no pointer chasing.
//
// occ mirrors the queues as a bitset (bit i set iff queue i is nonempty),
// so the per-cycle stage sweeps visit only occupied links instead of
// scanning all 3*N*n of them.
type ringQueues struct {
	buf  []packet // len = links * cap; queue q occupies buf[q*cap : (q+1)*cap]
	head []int32  // per-queue index of the front element within its window
	size []int32  // per-queue occupancy
	occ  []uint64 // nonempty-queue bitset, one bit per queue
	cap  int32    // stride (QueueCap)
}

func newRingQueues(links, capacity int) ringQueues {
	return ringQueues{
		buf:  make([]packet, links*capacity),
		head: make([]int32, links),
		size: make([]int32, links),
		occ:  make([]uint64, (links+63)/64),
		cap:  int32(capacity),
	}
}

// reset empties every queue without touching the packet storage.
func (q *ringQueues) reset() {
	for i := range q.head {
		q.head[i] = 0
		q.size[i] = 0
	}
	for i := range q.occ {
		q.occ[i] = 0
	}
}

// len returns the occupancy of queue i.
func (q *ringQueues) len(i int) int32 { return q.size[i] }

// push appends pk to queue i, reporting false (and storing nothing) when
// the queue is at capacity. On success it returns the new occupancy.
func (q *ringQueues) push(i int, pk packet) (int32, bool) {
	n := q.size[i]
	if n >= q.cap {
		return n, false
	}
	pos := q.head[i] + n
	if pos >= q.cap {
		pos -= q.cap
	}
	q.buf[int32(i)*q.cap+pos] = pk
	q.size[i] = n + 1
	if n == 0 {
		q.occ[i>>6] |= 1 << uint(i&63)
	}
	return n + 1, true
}

// front returns the head packet of queue i; the queue must be non-empty.
func (q *ringQueues) front(i int) packet {
	return q.buf[int32(i)*q.cap+q.head[i]]
}

// pop removes and returns the head packet of queue i; the queue must be
// non-empty.
func (q *ringQueues) pop(i int) packet {
	h := q.head[i]
	pk := q.buf[int32(i)*q.cap+h]
	h++
	if h == q.cap {
		h = 0
	}
	q.head[i] = h
	n := q.size[i] - 1
	q.size[i] = n
	if n == 0 {
		q.occ[i>>6] &^= 1 << uint(i&63)
	}
	return pk
}
