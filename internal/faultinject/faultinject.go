// Package faultinject is a small hook registry for injecting faults —
// delays, errors and panics — at named sites of the serving and snapshot
// layers, so chaos tests (and operators reproducing an incident) can prove
// that the dispatcher's panic recovery, the drain timeout and the
// snapshot-restore fallback actually hold under fire.
//
// The registry is strictly zero-cost when disarmed: Fire performs one
// atomic load and returns.  No fault site may sit inside the steady-state
// measurement hot path (the pool/arena discipline of load-bearing contract
// #6); sites are placed at evaluation and snapshot boundaries, which run
// once per simulation or per snapshot, never per modelled access.
//
// Faults are armed programmatically (Set, from tests) or from a spec string
// (Configure, from proxyd's -faults flag):
//
//	site=delay:50ms          sleep before proceeding
//	site=error:message       return an injected error
//	site=panic               panic at the site
//	site=panic:boom          panic with a message
//
// Multiple faults are comma-separated; an optional *N suffix limits how
// many times a fault fires (e.g. "serve.evaluate=panic*1" panics exactly
// once and is inert afterwards).
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// armed short-circuits Fire when no fault is registered anywhere; it is the
// only state a production binary ever touches.
var armed atomic.Bool

var (
	mu    sync.Mutex
	sites map[string]*Fault
)

// Fault describes one injected failure.  Exactly one of the action fields
// (Delay combined with Err or Panic is allowed: the delay applies first) is
// typically set; the zero Fault is a no-op.
type Fault struct {
	// Delay is slept before any other action fires.
	Delay time.Duration
	// Err is returned by Fire (after Delay).
	Err error
	// Panic makes Fire panic with PanicMsg (after Delay).
	Panic    bool
	PanicMsg string
	// Hook, if non-nil, runs after Delay and before Err/Panic; tests use it
	// to block a site on a channel or observe that it was reached.  A non-nil
	// error returned by the hook is returned by Fire.
	Hook func() error
	// Times bounds how many firings the fault survives; 0 means unlimited.
	Times int

	remaining int
}

// Enabled reports whether any fault is currently armed.  Call sites may use
// it to skip building Fire arguments, but Fire itself already short-circuits
// on one atomic load.
func Enabled() bool { return armed.Load() }

// Set arms a fault at the named site, replacing any previous fault there.
func Set(site string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*Fault)
	}
	f.remaining = f.Times
	sites[site] = &f
	armed.Store(true)
}

// Clear disarms the named site.
func Clear(site string) {
	mu.Lock()
	defer mu.Unlock()
	delete(sites, site)
	if len(sites) == 0 {
		armed.Store(false)
	}
}

// Reset disarms every site.  Tests that arm faults must defer a Reset so
// later tests (and the benchmarks' zero-alloc gates) run with the registry
// fully disarmed.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = nil
	armed.Store(false)
}

// Fire triggers the fault registered at site, if any: it sleeps the
// configured delay, runs the test hook, and returns the configured error or
// panics.  With nothing armed anywhere it is a single atomic load.
func Fire(site string) error {
	if !armed.Load() {
		return nil
	}
	return fire(site)
}

func fire(site string) error {
	mu.Lock()
	f := sites[site]
	if f == nil {
		mu.Unlock()
		return nil
	}
	if f.Times > 0 {
		if f.remaining == 0 {
			mu.Unlock()
			return nil
		}
		f.remaining--
	}
	// Copy the action out so the site is not held locked while sleeping.
	act := *f
	mu.Unlock()

	if act.Delay > 0 {
		time.Sleep(act.Delay)
	}
	if act.Hook != nil {
		if err := act.Hook(); err != nil {
			return err
		}
	}
	if act.Panic {
		msg := act.PanicMsg
		if msg == "" {
			msg = fmt.Sprintf("faultinject: injected panic at %s", site)
		}
		panic(msg)
	}
	return act.Err
}

// Configure arms faults from a spec string: comma-separated site=action
// pairs, where action is "delay:<duration>", "error[:message]",
// "panic[:message]", optionally suffixed "*N" to bound the firing count.
// An empty spec is a no-op; a malformed spec returns an error and arms
// nothing.
func Configure(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	type pending struct {
		site string
		f    Fault
	}
	var parsed []pending
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, action, ok := strings.Cut(part, "=")
		if !ok || site == "" || action == "" {
			return fmt.Errorf("faultinject: malformed fault %q (want site=action)", part)
		}
		if base, times, ok := strings.Cut(action, "*"); ok {
			n, err := strconv.Atoi(times)
			if err != nil || n <= 0 {
				return fmt.Errorf("faultinject: malformed firing count in %q", part)
			}
			f, err := parseAction(base)
			if err != nil {
				return err
			}
			f.Times = n
			parsed = append(parsed, pending{site: site, f: f})
			continue
		}
		f, err := parseAction(action)
		if err != nil {
			return err
		}
		parsed = append(parsed, pending{site: site, f: f})
	}
	for _, p := range parsed {
		Set(p.site, p.f)
	}
	return nil
}

func parseAction(action string) (Fault, error) {
	kind, arg, _ := strings.Cut(action, ":")
	switch kind {
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return Fault{}, fmt.Errorf("faultinject: malformed delay %q", arg)
		}
		return Fault{Delay: d}, nil
	case "error":
		msg := arg
		if msg == "" {
			msg = "injected error"
		}
		return Fault{Err: errors.New("faultinject: " + msg)}, nil
	case "panic":
		return Fault{Panic: true, PanicMsg: arg}, nil
	}
	return Fault{}, fmt.Errorf("faultinject: unknown action %q", action)
}
