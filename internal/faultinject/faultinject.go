// Package faultinject provides named fault-injection trigger points for
// deterministic robustness testing. Production code calls Fire(point) at
// interesting boundaries (scan batches, join build/probe, sort input,
// iterate rounds, snapshot writes); the call is a single atomic load unless
// a test has armed a hook, so the hooks cost nothing in normal operation.
//
// Hooks return an error to inject a failure, or panic to exercise the
// executor's panic containment. Points are plain strings, namespaced by
// package (e.g. "exec.sort.run", "persist.save.write").
package faultinject

import (
	"sync"
	"sync/atomic"
)

var (
	armed atomic.Bool
	mu    sync.Mutex
	hooks map[string]func() error
)

// Fire invokes the hook registered at point, if any. It is the only call
// that appears in production code paths.
func Fire(point string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	fn := hooks[point]
	mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// Set registers a hook at point, replacing any previous hook there.
func Set(point string, fn func() error) {
	mu.Lock()
	defer mu.Unlock()
	if hooks == nil {
		hooks = map[string]func() error{}
	}
	hooks[point] = fn
	armed.Store(true)
}

// FailOnce registers a hook that returns err on its first firing and nil
// afterwards.
func FailOnce(point string, err error) {
	var done atomic.Bool
	Set(point, func() error {
		if done.Swap(true) {
			return nil
		}
		return err
	})
}

// FailAfter registers a hook that returns nil for the first n firings and
// err on every firing after that.
func FailAfter(point string, n int64, err error) {
	var count atomic.Int64
	Set(point, func() error {
		if count.Add(1) <= n {
			return nil
		}
		return err
	})
}

// Clear removes the hook at point.
func Clear(point string) {
	mu.Lock()
	defer mu.Unlock()
	delete(hooks, point)
	if len(hooks) == 0 {
		armed.Store(false)
	}
}

// Reset removes every hook. Tests that Set hooks should defer Reset.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	hooks = nil
	armed.Store(false)
}
