package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestCPUProfileWrittenOnShutdown: a daemon started with -cpuprofile and
// stopped with SIGTERM leaves a non-empty profile behind.
func TestCPUProfileWrittenOnShutdown(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "dynpd")
	if out, err := exec.Command("go", "build", "-o", bin, "dynp/cmd/dynpd").CombinedOutput(); err != nil {
		t.Fatalf("build dynpd: %v\n%s", err, out)
	}
	addrFile := filepath.Join(dir, "addr")
	prof := filepath.Join(dir, "cpu.pprof")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-cpuprofile", prof)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		_ = cmd.Process.Kill()
		<-exited
	}()

	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(addrFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dynpd did not start listening within 30 s")
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err // for the deferred reap
		if err != nil {
			t.Fatalf("dynpd exited with %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dynpd ignored SIGTERM")
	}
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("empty CPU profile")
	}
}
