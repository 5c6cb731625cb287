package stream

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

func TestPipeBasicWriteRead(t *testing.T) {
	r, w := Pipe()
	msg := []byte("hello streams")
	go func() {
		if _, err := w.Write(msg); err != nil {
			t.Errorf("write: %v", err)
		}
		w.Close()
	}()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
}

func TestPipeSizeSmallBufferBackpressure(t *testing.T) {
	r, w := pipeSize(4)
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.Write(payload)
		w.Close()
		done <- err
	}()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted through small buffer: got %d bytes", len(got))
	}
}

func TestWriterCloseDeliversEOFAfterDrain(t *testing.T) {
	r, w := Pipe()
	if _, err := w.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tail" {
		t.Fatalf("got %q, want %q", got, "tail")
	}
}

func TestReaderCloseFailsWrites(t *testing.T) {
	r, w := Pipe()
	r.Close()
	if _, err := w.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("err = %v, want io.ErrClosedPipe", err)
	}
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close err = %v, want ErrClosed", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	r, w := Pipe()
	for _, c := range []io.Closer{w, w, r, r} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteAfterWriterClose(t *testing.T) {
	_, w := Pipe()
	w.Close()
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestConcurrentWritersSafe(t *testing.T) {
	// Concurrent writers are allowed (interleaving unspecified); total byte
	// count must still be exact.
	r, w := pipeSize(128)
	const writers, per = 4, 1000
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := w.Write([]byte{1}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan int, 1)
	go func() {
		n, _ := io.Copy(io.Discard, r)
		done <- int(n)
	}()
	wg.Wait()
	w.Close()
	if got := <-done; got != writers*per {
		t.Fatalf("reader got %d bytes, want %d", got, writers*per)
	}
}

// TestCloseUnblocksPendingIO: closing the reader wakes a Read waiting for
// data and a Write waiting for room.
func TestCloseUnblocksPendingIO(t *testing.T) {
	r, w := pipeSize(1)
	readErr := make(chan error, 1)
	go func() {
		_, err := r.Read(make([]byte, 1))
		readErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case err := <-readErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock Read")
	}

	r, w = pipeSize(1)
	writeErr := make(chan error, 1)
	go func() {
		_, err := w.Write([]byte("xy")) // one byte more than the buffer holds
		writeErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case err := <-writeErr:
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("err = %v, want io.ErrClosedPipe", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock Write")
	}
}
