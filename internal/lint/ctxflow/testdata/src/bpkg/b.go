// Package bpkg declares functions with Ctx siblings; the HasCtxVariant
// facts it exports must reach importers. The pairing depends only on
// the signatures, so the context-free halves need no body of note.
package bpkg

import "context"

func Process() error { return nil }

func ProcessCtx(ctx context.Context) error {
	_ = ctx
	return nil
}

type Store struct{}

func (s *Store) Flush() error { return nil }

func (s *Store) FlushCtx(ctx context.Context) error {
	_ = ctx
	return nil
}

// No sibling: calling this from a ctx-holding importer is clean.
func Plain() error { return nil }
