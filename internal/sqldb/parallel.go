package sqldb

import (
	"io"
	"sync"
)

// Parallel partitioned scans. The planner partitions a large snapshot across
// a worker pool; each worker runs the scan leaf's filter (a compiled rowPred,
// strict or lenient) over its contiguous slice, and the merge is
// order-insensitive (rows surface in whatever order workers produce them —
// fine for a SELECT with no ORDER BY, where row order is unspecified anyway).
// Projection happens above the scan, in the pipeline's projectStream. The
// snapshot rows, the predicate and its environment are all read-only after
// construction, so workers share them without synchronization; results flow
// through a batched channel to amortize coordination.
//
// Cancellation: workers poll the statement context every 256 rows and a stop
// channel whenever they hand off a batch, so Close (or the first error)
// stops the pool promptly; Close then waits for every worker to exit, so no
// goroutine outlives the stream.

// parBatch is one worker handoff: some kept rows, or a terminal error.
type parBatch struct {
	rows []Row
	err  error
}

// parallelScanStream merges a worker pool's batches into the RowStream
// contract. The pool starts lazily on the first Next, i.e. after the caller
// released the database lock.
type parallelScanStream struct {
	pred    *rowPred
	rows    []Row
	cols    []Column
	workers int

	started  bool
	out      chan parBatch
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	cur    []Row
	curIdx int
	err    error
	closed bool
}

func newParallelScanStream(pred *rowPred, rows []Row, cols []Column, workers int) *parallelScanStream {
	return &parallelScanStream{pred: pred, rows: rows, cols: cols, workers: workers}
}

func (ps *parallelScanStream) Columns() []Column { return ps.cols }

// start launches the pool: contiguous partitions, one goroutine each, and a
// closer that shuts the merge channel once every worker is done.
func (ps *parallelScanStream) start() {
	ps.started = true
	ps.out = make(chan parBatch, ps.workers)
	ps.stop = make(chan struct{})
	chunk := (len(ps.rows) + ps.workers - 1) / ps.workers
	if chunk < 1 {
		chunk = 1
	}
	for lo := 0; lo < len(ps.rows); lo += chunk {
		hi := lo + chunk
		if hi > len(ps.rows) {
			hi = len(ps.rows)
		}
		ps.wg.Add(1)
		go ps.scan(lo, hi)
	}
	go func() {
		ps.wg.Wait()
		close(ps.out)
	}()
}

// scan filters one partition, handing off batches of rows.
func (ps *parallelScanStream) scan(lo, hi int) {
	defer ps.wg.Done()
	const batchSize = 128
	batch := make([]Row, 0, batchSize)
	// flush hands the current batch to the merger; false means the stream
	// was stopped and the worker should abandon its partition.
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case ps.out <- parBatch{rows: batch}:
			batch = make([]Row, 0, batchSize)
			return true
		case <-ps.stop:
			return false
		}
	}
	fail := func(err error) {
		select {
		case ps.out <- parBatch{err: err}:
		case <-ps.stop:
		}
	}
	for i := lo; i < hi; i++ {
		if (i-lo)&255 == 0 {
			select {
			case <-ps.stop:
				return
			default:
			}
			if err := ps.pred.cx.checkCancel(i - lo); err != nil {
				fail(err)
				return
			}
		}
		keep, err := ps.pred.keep(ps.rows[i])
		if err != nil {
			fail(err)
			return
		}
		if !keep {
			continue
		}
		batch = append(batch, ps.rows[i])
		if len(batch) == batchSize && !flush() {
			return
		}
	}
	flush()
}

func (ps *parallelScanStream) Next() (Row, error) {
	if ps.err != nil {
		return nil, ps.err
	}
	if ps.closed {
		return nil, io.EOF
	}
	if !ps.started {
		ps.start()
	}
	if ps.curIdx < len(ps.cur) {
		r := ps.cur[ps.curIdx]
		ps.curIdx++
		return r, nil
	}
	for {
		b, ok := <-ps.out
		if !ok {
			return nil, io.EOF
		}
		if b.err != nil {
			ps.err = b.err
			ps.stopOnce.Do(func() { close(ps.stop) })
			return nil, b.err
		}
		if len(b.rows) == 0 {
			continue
		}
		ps.cur = b.rows
		ps.curIdx = 1
		return b.rows[0], nil
	}
}

// Close stops the pool and waits for every worker to exit; it is idempotent.
func (ps *parallelScanStream) Close() error {
	if ps.closed {
		return nil
	}
	ps.closed = true
	ps.cur, ps.curIdx = nil, 0
	if ps.started {
		ps.stopOnce.Do(func() { close(ps.stop) })
		// Drain until the closer shuts the channel: workers blocked on a
		// handoff see stop and exit, and wg.Wait inside the closer ends the
		// loop promptly.
		for range ps.out {
		}
	}
	return nil
}
