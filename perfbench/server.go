package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"videorec"
	"videorec/internal/server"
)

// listenerFD is the descriptor the server process inherits its listening
// socket on (the first of exec.Cmd.ExtraFiles).
const listenerFD = 3

// serve is the server process: it ingests the prepared corpus into one
// engine, attaches the journal if given one, and serves the HTTP API with
// cmd/vrecd's default flags until SIGTERM. Its listener is inherited, so connections
// made while it sets up wait in the backlog and the first /readyz answer
// marks the end of set-up.
func serve(corpusPath, journal string) error {
	ln, err := net.FileListener(os.NewFile(listenerFD, "listener"))
	if err != nil {
		return fmt.Errorf("inherit listener: %w", err)
	}
	var c *Corpus
	if err := readGob(corpusPath, &c); err != nil {
		return err
	}
	cfg := server.Config{
		QueryTimeout: 2 * time.Second,
		MaxInFlight:  256,
		MaxK:         100,
		RetryAfter:   time.Second,
	}
	eng := videorec.New(videorec.Options{})
	for i := range c.Clips {
		if err := eng.AddPrepared(c.Clips[i].Prepared()); err != nil {
			return fmt.Errorf("ingest %s: %w", c.Clips[i].ID, err)
		}
	}
	eng.Build()
	if journal != "" {
		if _, err := eng.ReplayJournal(journal); err != nil {
			return err
		}
		if err := eng.AttachJournal(journal); err != nil {
			return err
		}
		cfg.ReadyChecks = append(cfg.ReadyChecks, server.JournalCheck(eng))
	}
	c = nil // the engine holds what it needs

	srv := &http.Server{
		Handler:      server.NewWithConfig(eng, cfg).Handler(),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 60 * time.Second,
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, os.Interrupt)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case <-stop:
	case err := <-served:
		return fmt.Errorf("serve: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return server.Drain(ctx, srv, eng, "")
}

// serverProc is a running server process.
type serverProc struct {
	cmd   *exec.Cmd
	url   string
	setup time.Duration // process start to the first 200 from /readyz
}

// startServer starts a server process on the corpus file and waits for it
// to report ready.
func startServer(exe, corpusPath, journal string) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f, err := ln.(*net.TCPListener).File()
	ln.Close() // f holds its own descriptor of the socket
	if err != nil {
		return nil, fmt.Errorf("listener file: %w", err)
	}
	defer f.Close()
	cmd := exec.Command(exe, "-serve", "-corpus", corpusPath, "-journal", journal)
	cmd.ExtraFiles = []*os.File{f}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	p := &serverProc{cmd: cmd, url: "http://" + ln.Addr().String()}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	if err := p.awaitReady(2 * time.Minute); err != nil {
		p.stop()
		return nil, err
	}
	p.setup = time.Since(start)
	return p, nil
}

// awaitReady polls /readyz until it answers 200.
func (p *serverProc) awaitReady(timeout time.Duration) error {
	client := &http.Client{Timeout: timeout, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(p.url + "/readyz")
		if err != nil {
			return fmt.Errorf("readyz: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("server not ready in time")
}

// cpu returns the server process's user+system CPU time so far.
func (p *serverProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read server stat: %w", err)
	}
	// Fields after the parenthesized command name: state is the first,
	// utime and stime the 12th and 13th, in clock ticks of 1/100 s.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, errors.New("short server stat")
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed server stat")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS returns the server process's peak resident set size in MiB.
func (p *serverProc) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read server status: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in server status")
}

// stop asks the server to drain and waits for it to exit, killing it if it
// does not within ten seconds.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		log.Printf("signal server: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return errors.New("server did not stop in time; killed")
	}
}
