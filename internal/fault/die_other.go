//go:build !unix

package fault

import "os"

// die exits immediately with the conventional SIGKILL status. os.Exit
// runs no deferred functions, so the filesystem state it leaves behind
// matches a kill closely enough for crash testing off unix.
func die() {
	os.Exit(137)
}

// terminate delivers os.Interrupt to the process, the closest portable
// graceful-shutdown request.
func terminate() {
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		_ = p.Signal(os.Interrupt)
	}
}
