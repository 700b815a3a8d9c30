// Package a exercises ctxflow's intra-package checks: fresh roots in
// library code (context-free shims over a Ctx sibling included), roots
// minted despite a context parameter, the nil-guard idiom, and the
// Ctx-variant preference within one package.
package a

import "context"

// --- check 1: fresh roots in library code ---

func freshRoot() {
	_ = context.Background() // want `context.Background\(\) in library code`
}

func freshTODO() {
	_ = context.TODO() // want `context.TODO\(\) in library code`
}

// --- check 2: minting a root despite holding a context ---

func alreadyHasCtx(ctx context.Context) {
	_ = ctx
	_ = context.Background() // want `already receives a context.Context`
}

func litWithCtx() {
	f := func(ctx context.Context) {
		_ = ctx
		_ = context.TODO() // want `already receives a context.Context`
	}
	_ = f
}

// --- not an idiom: a context-free shim over its Ctx sibling ---

func Run() error {
	return RunCtx(context.Background()) // want `context.Background\(\) in library code`
}

func RunCtx(ctx context.Context) error {
	_ = ctx
	return nil
}

type Pool struct{ ctx context.Context }

func (p *Pool) Record() error {
	return p.RecordCtx(context.Background()) // want `context.Background\(\) in library code`
}

func (p *Pool) RecordCtx(ctx context.Context) error {
	_ = ctx
	return nil
}

// --- not an idiom: a defaulting accessor over a stored context ---

func (p *Pool) Context() context.Context {
	if p.ctx == nil {
		return context.Background() // want `context.Background\(\) in library code`
	}
	return p.ctx
}

// --- clean idiom: nil guard (plain = over a context variable) ---

func nilGuard(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	_ = ctx
}

// A fresh declaration is not the guard: := mints a new root.
func notAGuard() {
	ctx := context.Background() // want `context.Background\(\) in library code`
	_ = ctx
}

// --- check 3: preferring the Ctx variant inside the package ---

func caller(ctx context.Context) error {
	_ = ctx
	return Run() // want `Run has a context variant RunCtx`
}

func callerMethod(ctx context.Context, p *Pool) error {
	_ = ctx
	return p.Record() // want `Record has a context variant RecordCtx`
}

// Calling the variant itself is the fix and is clean.
func fixedCaller(ctx context.Context, p *Pool) error {
	if err := RunCtx(ctx); err != nil {
		return err
	}
	return p.RecordCtx(ctx)
}

// Without a context in scope there is nothing to pass: clean.
func noCtxCaller() error {
	return Run()
}
