//go:build unix

package fault

import (
	"os"
	"syscall"
)

// die kills the process exactly as SIGKILL would: no deferred cleanup,
// no atexit, no flushing — the honest crash the store's durability
// contract is written against.
func die() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	// SIGKILL delivery can race the return; never resume the caller.
	for {
		os.Exit(137)
	}
}

// terminate sends the process SIGTERM: the request a supervisor makes
// for a graceful shutdown.
func terminate() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGTERM)
}
