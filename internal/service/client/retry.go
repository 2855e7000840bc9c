package client

import (
	"context"
	"errors"
	"net/http"
	"time"
)

// maxAttempts bounds the submissions one Run makes: the first try plus up
// to five retries.
const maxAttempts = 6

// retryWait is the client's one retry rule: a 429 or 503 that carries a
// Retry-After header is the server asking to be tried again after exactly
// that wait. tsoper-serve sets the header on every transient rejection —
// queue full (429) and draining (503) — and on nothing else, so every other
// error, the over-budget 429 included, is final.
func retryWait(err error) (time.Duration, bool) {
	var apiErr *APIError
	if !errors.As(err, &apiErr) || !apiErr.hasRetryAfter {
		return 0, false
	}
	switch apiErr.Status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return apiErr.RetryAfter, true
	}
	return 0, false
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
