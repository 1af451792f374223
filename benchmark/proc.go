package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procResult is what the orchestrator learns about one finished child.
type procResult struct {
	Start  time.Time
	Wall   time.Duration
	CPU    time.Duration // user + system, from wait4's rusage
	RSSKB  int64         // ru_maxrss; see the peak-RSS note in runProc
	Stdout []byte
}

// runProc runs one child to completion and times it from just before
// exec to just after wait4 returns.
//
// Peak RSS comes from the child's rusage. On Linux an exec'd child's
// ru_maxrss starts at the high-water mark of the address space it was
// forked from, so the figure is only right while this process stays
// smaller than every child it measures; the orchestrator therefore holds
// no data, and checkRSSFloor verifies it.
func runProc(ctx context.Context, env []string, name string, args ...string) (procResult, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), env...)
	cmd.WaitDelay = 5 * time.Second
	start := time.Now()
	err := cmd.Run()
	res := procResult{Start: start, Wall: time.Since(start), Stdout: out.Bytes()}
	if cmd.ProcessState != nil {
		res.CPU = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.RSSKB = int64(ru.Maxrss)
		}
	}
	if err != nil {
		return res, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return res, nil
}

// vmHWM reads a live process's peak resident set size from
// /proc/<pid>/status, in kB.
func vmHWM(pid int) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// popmerge is one running merge service.
type popmerge struct {
	cmd     *exec.Cmd
	Addr    string
	drained chan struct{} // closed once stderr has been read to EOF
}

// startPopmerge starts popmerge on a kernel-chosen port and learns the
// bound address from its "serving" log line, so there is no window in
// which another process could take a port picked in advance.
func startPopmerge(ctx context.Context, bin string, env []string) (*popmerge, error) {
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-log-format", "json")
	cmd.Env = append(os.Environ(), env...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("popmerge: %w", err)
	}
	p := &popmerge{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			var line struct {
				Level, Msg, Addr string
			}
			if json.Unmarshal(sc.Bytes(), &line) != nil {
				continue
			}
			if !found && line.Msg == "serving" && line.Addr != "" {
				found = true
				addr <- line.Addr
			} else if line.Level == "WARN" || line.Level == "ERROR" {
				fmt.Fprintf(os.Stderr, "popmerge: %s\n", sc.Bytes())
			}
		}
		if !found {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			p.kill()
			return nil, errors.New("popmerge exited before its serving line")
		}
		p.Addr = a
		return p, nil
	case <-time.After(20 * time.Second):
		p.kill()
		return nil, errors.New("popmerge printed no serving line within 20s")
	case <-ctx.Done():
		p.kill()
		return nil, ctx.Err()
	}
}

// kill ends the service at once and reaps it; for error paths.
func (p *popmerge) kill() {
	p.cmd.Process.Kill()
	<-p.drained
	p.cmd.Wait()
}

// stop reads the service's peak RSS while it is still alive, asks it to
// shut down, and reaps it, returning its total CPU time.
func (p *popmerge) stop() (cpu time.Duration, hwmKB int64, err error) {
	hwmKB, hwmErr := vmHWM(p.cmd.Process.Pid)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return 0, 0, fmt.Errorf("popmerge: signal: %w", err)
	}
	<-p.drained
	if err := p.cmd.Wait(); err != nil {
		return 0, 0, fmt.Errorf("popmerge: %w", err)
	}
	if hwmErr != nil {
		return 0, 0, hwmErr
	}
	st := p.cmd.ProcessState
	return st.UserTime() + st.SystemTime(), hwmKB, nil
}

// child is a re-exec of the benchmark binary in a role, spoken to in JSON
// lines over its stdin and stdout.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
}

// startChild re-executes this binary with -role role.
func startChild(ctx context.Context, role string, args ...string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, append([]string{"-role", role}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s role: %w", role, err)
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	return &child{cmd: cmd, stdin: stdin, out: sc}, nil
}

// call sends one request line and decodes the one reply line into reply.
// A reply carrying an "error" field is returned as an error.
func (c *child) call(req, reply any) error {
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		if _, err := c.stdin.Write(append(b, '\n')); err != nil {
			return fmt.Errorf("child request: %w", err)
		}
	}
	if !c.out.Scan() {
		if err := c.out.Err(); err != nil {
			return fmt.Errorf("child reply: %w", err)
		}
		return errors.New("child exited without replying")
	}
	var fail struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(c.out.Bytes(), &fail); err != nil {
		return fmt.Errorf("child reply %q: %w", c.out.Bytes(), err)
	}
	if fail.Error != "" {
		return errors.New(fail.Error)
	}
	return json.Unmarshal(c.out.Bytes(), reply)
}

// close ends the child by closing its stdin and reaps it.
func (c *child) close() error {
	c.stdin.Close()
	for c.out.Scan() {
	}
	return c.cmd.Wait()
}
