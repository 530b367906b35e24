package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat (100 on every Linux ABI Go supports).
const clockTick = 10 * time.Millisecond

// daemon is one mssd process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string
	pid  int
	log  *os.File
	once sync.Once
}

// startDaemon launches mssd on a free loopback port and waits until its
// healthz answers.
func (r *run) startDaemon(name string, args ...string) (*daemon, error) {
	return r.startDaemonEnv(name, nil, args...)
}

// startDaemonEnv is startDaemon with extra environment variables.
func (r *run) startDaemonEnv(name string, env []string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(r.dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(r.bin, "mssd"), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if env != nil {
		cmd.Env = append(os.Environ(), env...)
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting mssd %s: %w", name, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, pid: cmd.Process.Pid, log: logf}
	r.dmu.Lock()
	r.daemons = append(r.daemons, d)
	r.dmu.Unlock()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("mssd %s never became healthy (see %s)", name, logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the daemon and waits for it to exit; stopping it again is a
// no-op.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		d.cmd.Wait()
		d.log.Close()
	})
}

// stopDaemons stops every daemon the run started.
func (r *run) stopDaemons() {
	r.dmu.Lock()
	defer r.dmu.Unlock()
	for _, d := range r.daemons {
		d.stop()
	}
	r.daemons = nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// --- /proc counters ---

// procCPU returns the process's utime+stime.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	rest := data[bytes.LastIndexByte(data, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procStatusKB reads one kB-valued field (VmHWM, VmRSS) of
// /proc/<pid>/status.
func procStatusKB(pid int, field string) (int64, error) {
	path := fmt.Sprintf("/proc/%d/status", pid)
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field+":") {
			fs := strings.Fields(line[len(field)+1:])
			if len(fs) == 0 {
				break
			}
			return strconv.ParseInt(fs[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, field)
}

// procWriteBytes reads write_bytes (bytes the process caused to be sent to
// the storage layer) from /proc/<pid>/io.
func procWriteBytes(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/io: no write_bytes", pid)
}

// hostSteal returns the host's total CPU steal time (/proc/stat): time the
// hypervisor ran something else while this machine's vCPUs wanted to run.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	steal, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(steal) * clockTick
}

// procSample is one reading of a daemon's /proc counters.
type procSample struct {
	cpu   time.Duration
	write int64
}

func (d *daemon) sample() procSample {
	cpu, _ := procCPU(d.pid)
	wb, _ := procWriteBytes(d.pid)
	return procSample{cpu: cpu, write: wb}
}

// hwmMB is the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) hwmMB() (float64, error) {
	kb, err := procStatusKB(d.pid, "VmHWM")
	return float64(kb) / 1024, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err == nil && de.Type().IsRegular() {
			if info, err := de.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// --- HTTP ---

// newClient returns a keep-alive client limited to conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// post sends a JSON body and returns the response body; a non-200 status
// is an error.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	return do(c, http.MethodPost, url, body)
}

func do(c *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// getJSON fetches url and decodes the body into v.
func getJSON(c *http.Client, url string, v any) error {
	body, err := do(c, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// --- Go runtime counters (in-process ops) ---

// goCounters reads the allocation and GC-cycle totals of this process.
func goCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
