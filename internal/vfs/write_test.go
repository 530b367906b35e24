package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestWriteAtomicFaultWalk fails each operation of one write in turn, first
// with EIO and then as a crash, and checks what the helper promises: the
// call reports the fault, and WriteAtomic's path holds exactly the old bytes
// when the fault came at or before the rename and exactly the new bytes
// after it, never a torn file; an EIO leaves no temp file behind. A clean
// call fsyncs the file and, for WriteAtomic, the directory. WriteSynced is
// not atomic, so its walk checks only that every fault is reported.
func TestWriteAtomicFaultWalk(t *testing.T) {
	oldData, newData := []byte("old bytes"), bytes.Repeat([]byte("new "), 1<<10)
	cases := []struct {
		name   string
		call   func(fsys FS, path string) error
		ops    int // a clean call's operations
		syncs  int // ... and how many of them are fsyncs
		atomic bool
	}{
		{
			name: "WriteAtomic",
			call: func(fsys FS, path string) error {
				return WriteAtomic(fsys, path, ".tmp-*", func(w io.Writer) error {
					_, err := w.Write(newData)
					return err
				})
			},
			ops: 6, syncs: 2, atomic: true, // create, write, sync, close, rename, syncdir
		},
		{
			name: "WriteSynced",
			call: func(fsys FS, path string) error {
				return WriteSynced(fsys, path, bytes.NewReader(newData))
			},
			ops: 4, syncs: 1, // open, write, sync, close
		},
	}
	// setup makes a directory whose file f holds oldData.
	setup := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		if err := os.WriteFile(path, oldData, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir, path
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, plan := range []FaultPlan{{}, {Kinds: OpSync}} {
				_, path := setup(t)
				counter := NewFaulty(OS, plan)
				if err := tc.call(counter, path); err != nil {
					t.Fatal(err)
				}
				want := tc.ops
				if plan.Kinds == OpSync {
					want = tc.syncs
				}
				if got := counter.Ops(); got != want {
					t.Fatalf("clean call ran %d operations of kind %b, want %d", got, plan.Kinds, want)
				}
				if got, _ := os.ReadFile(path); !bytes.Equal(got, newData) {
					t.Fatalf("clean call left %d bytes, want the %d new ones", len(got), len(newData))
				}
			}
			for n := 1; n <= tc.ops; n++ {
				for _, crash := range []bool{false, true} {
					t.Run(fmt.Sprintf("op%d/crash=%v", n, crash), func(t *testing.T) {
						dir, path := setup(t)
						plan, wantErr := FaultPlan{Nth: n, Err: syscall.EIO}, error(syscall.EIO)
						if crash {
							plan, wantErr = FaultPlan{Nth: n, Crash: true}, ErrCrashed
						}
						fsys := NewFaulty(OS, plan)
						if err := tc.call(fsys, path); !errors.Is(err, wantErr) {
							t.Fatalf("call failed with %v, want %v", err, wantErr)
						}
						if !tc.atomic {
							return
						}
						// The rename is the last operation but the directory
						// fsync.
						want := oldData
						if n == tc.ops {
							want = newData
						}
						if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
							t.Fatalf("path holds %d bytes, want %d (torn or wrong generation)", len(got), len(want))
						}
						if crash {
							return // a crash leaves its temp file, as a real one does
						}
						entries, err := os.ReadDir(dir)
						if err != nil {
							t.Fatal(err)
						}
						if len(entries) != 1 {
							t.Fatalf("directory holds %d entries after the fault, want only the target", len(entries))
						}
					})
				}
			}
		})
	}
}
