package jobs

import (
	"bytes"
	"sync"
)

// hub fans one job's event lines out to live subscribers (the daemon's
// SSE streams). The disk files are the durable record; the hub is pure
// observability, so a slow subscriber drops lines rather than stalling
// the run, and closing the hub (job reached a terminal state) closes
// every subscriber channel.
type hub struct {
	mu     sync.Mutex
	subs   map[int]chan []byte
	nextID int
	closed bool
}

func newHub() *hub { return &hub{subs: make(map[int]chan []byte)} }

// publish delivers every line of chunk (lines end in '\n'; the last
// one may not) to every subscriber as its own message, non-blocking. It
// copies the chunk once, and only when someone is subscribed; the lines
// share that copy.
func (h *hub) publish(chunk []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || len(h.subs) == 0 {
		return
	}
	rest := bytes.Clone(chunk)
	for len(rest) > 0 {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		line = line[:len(line):len(line)]
		for _, ch := range h.subs {
			select {
			case ch <- line:
			default: // slow subscriber: drop, never stall the run
			}
		}
	}
}

// subscribe registers a new subscriber and returns its channel plus an
// unsubscribe func (safe to call more than once, and after close). On a
// closed hub the returned channel is already closed.
func (h *hub) subscribe() (<-chan []byte, func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch := make(chan []byte, 256)
	if h.closed {
		close(ch)
		return ch, func() {}
	}
	id := h.nextID
	h.nextID++
	h.subs[id] = ch
	return ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if c, ok := h.subs[id]; ok {
			delete(h.subs, id)
			close(c)
		}
	}
}

// close marks the stream finished and closes every subscriber channel.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, ch := range h.subs {
		delete(h.subs, id)
		close(ch)
	}
}

// hubWriter adapts a hub to io.Writer so it can sit behind an
// io.MultiWriter next to the events file: pram.JSONL issues one Write
// per tick, holding that tick's lines, and the hub publishes each line
// (sans trailing newline) as one event.
type hubWriter struct{ h *hub }

func (w hubWriter) Write(p []byte) (int, error) {
	w.h.publish(p)
	return len(p), nil
}
