//go:build !linux

package tracestore

// releasePages is a no-op off Linux: a released mapping keeps its pages
// until Close (or until the kernel reclaims them), exactly as before
// pins were counted.
func releasePages([]byte) {}
