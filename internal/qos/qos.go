// Package qos holds the serving quality-of-service machinery: an
// admission controller that sheds load *before* it queues (deadline- and
// queue-depth-based, returning a typed ErrOverloaded the client can
// retry against another frontend) and a hedge budget that follows a
// replica group's own median latency under a hedge-rate cap.
//
// The admission model is the classic M/M/c-flavored estimate: with c
// workers, an EWMA of per-request service time s, and q requests already
// queued ahead of you, your expected wait is q*s/c. If that exceeds the
// time your context has left, you were never going to make your
// deadline — rejecting now costs the client one cheap error instead of a
// slot in a collapsing queue (and keeps the p99 of *admitted* requests
// bounded at any offered load).
package qos

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ErrOverloaded is the sentinel every shed request wraps: match with
// errors.Is(err, qos.ErrOverloaded).
var ErrOverloaded = errors.New("qos: overloaded")

// Overload is the concrete error an admission rejection returns. It
// wraps ErrOverloaded and carries the estimate that triggered the shed.
type Overload struct {
	// QueueDepth is the number of requests that were ahead in line.
	QueueDepth int64
	// EstimatedWait is the projected queue wait at admission time.
	EstimatedWait time.Duration
	// Budget is the request's remaining deadline budget the estimate
	// exceeded; 0 means the rejection came from the hard queue cap.
	Budget time.Duration
}

func (o *Overload) Error() string {
	if o.Budget == 0 {
		return fmt.Sprintf("qos: overloaded (queue depth %d over cap)", o.QueueDepth)
	}
	return fmt.Sprintf("qos: overloaded (estimated wait %v exceeds deadline budget %v at queue depth %d)",
		o.EstimatedWait, o.Budget, o.QueueDepth)
}

// Is makes errors.Is(err, ErrOverloaded) succeed for Overload values.
func (o *Overload) Is(target error) bool { return target == ErrOverloaded }

// Controller is the admission gate. Zero cost when idle: admission is
// one atomic add plus an EWMA read; completion is an atomic add plus an
// EWMA fold.
type Controller struct {
	limit    int64 // concurrent requests served at full rate (pool width)
	maxQueue int64 // waiters allowed beyond limit; 0 = no hard cap
	inflight atomic.Int64
	shed     metrics.Counter
	svc      metrics.EWMA // service time per request, execution only
}

// NewController returns a controller for a server with `limit`
// concurrent execution slots. maxQueue bounds the waiters beyond the
// limit regardless of deadline (0 = unbounded; deadline-based shedding
// only — requests without deadlines are then never shed).
func NewController(limit, maxQueue int) *Controller {
	if limit < 1 {
		limit = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Controller{limit: int64(limit), maxQueue: int64(maxQueue)}
}

// Admit claims one execution slot or rejects with an *Overload. On
// success the caller MUST pair it with exactly one Done or Release.
func (c *Controller) Admit(ctx context.Context) error {
	n := c.inflight.Add(1)
	queued := n - c.limit
	if queued <= 0 {
		return nil
	}
	if c.maxQueue > 0 && queued > c.maxQueue {
		c.inflight.Add(-1)
		c.shed.Inc()
		return &Overload{QueueDepth: queued - 1}
	}
	if deadline, ok := ctx.Deadline(); ok {
		svc := c.svc.Value()
		wait := time.Duration(queued) * svc / time.Duration(c.limit)
		if budget := time.Until(deadline); wait > budget {
			c.inflight.Add(-1)
			c.shed.Inc()
			if budget < 0 {
				budget = 0
			}
			return &Overload{QueueDepth: queued - 1, EstimatedWait: wait, Budget: budget}
		}
	}
	return nil
}

// AdmitBatch admits up to n requests sharing one context and returns
// how many were admitted; the rejected remainder is the batch's tail
// (admission is monotone in queue position, so if position i is shed,
// every later position would be too). Each admitted request must be
// paired with exactly one Done or Release.
func (c *Controller) AdmitBatch(ctx context.Context, n int) (admitted int, err error) {
	for i := 0; i < n; i++ {
		if e := c.Admit(ctx); e != nil {
			return i, e
		}
	}
	return n, nil
}

// Done releases a slot and folds the request's execution time into the
// service estimate. Pass the time actually spent *executing* (not
// queueing): the queue model divides the queue length by the drain
// rate, so feeding wait-inclusive samples would double-count the queue.
func (c *Controller) Done(service time.Duration) {
	c.inflight.Add(-1)
	if service > 0 {
		c.svc.Observe(service)
	}
}

// Release releases a slot without a service observation — for admitted
// requests that never executed (validation errors, cache hits,
// cancellations).
func (c *Controller) Release() { c.inflight.Add(-1) }

// Inflight returns the number of currently admitted requests.
func (c *Controller) Inflight() int64 { return c.inflight.Load() }

// Shed returns the number of rejections so far.
func (c *Controller) Shed() int64 { return c.shed.Load() }

// ServiceEstimate returns the current EWMA of per-request service time.
func (c *Controller) ServiceEstimate() time.Duration { return c.svc.Value() }
