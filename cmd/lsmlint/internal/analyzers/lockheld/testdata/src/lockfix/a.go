// Package lockfix exercises the lockheld analyzer: no blocking work while
// db.mu or applyMu is held.
package lockfix

import (
	"net"
	"sync"
	"time"
)

type file struct{}

func (f *file) Sync() error  { return nil }
func (f *file) Write() error { return nil }

type db struct {
	mu        sync.Mutex
	applyMu   sync.Mutex
	flushedCh chan struct{}
	flushCond *sync.Cond
	log       *file
}

// badSyncUnderMu fsyncs inside the critical section.
func (d *db) badSyncUnderMu() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.log.Write(); err != nil {
		return err
	}
	return d.log.Sync() // want `fsync \(Sync\) while d\.mu is held`
}

// badSleepUnderApplyMu sleeps while holding the apply lock.
func (d *db) badSleepUnderApplyMu() {
	d.applyMu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while d\.applyMu is held`
	d.applyMu.Unlock()
}

// badChannelOps sends, receives, and selects under the lock.
func (d *db) badChannelOps() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flushedCh <- struct{}{} // want `channel send while d\.mu is held`
	<-d.flushedCh             // want `channel receive while d\.mu is held`
	select {                  // want `blocking select while d\.mu is held`
	case <-d.flushedCh:
	}
}

// goodSyncAfterUnlock releases the lock before the fsync — the pattern the
// engine's flush path uses.
func (d *db) goodSyncAfterUnlock() error {
	d.mu.Lock()
	w := d.log
	d.mu.Unlock()
	return w.Sync()
}

// goodKickBackground uses the non-blocking select-with-default idiom to
// nudge a background worker while holding the lock.
func (d *db) goodKickBackground() {
	d.mu.Lock()
	defer d.mu.Unlock()
	select {
	case d.flushedCh <- struct{}{}:
	default:
	}
}

// goodCondWait blocks on the condition variable, which releases the mutex
// while waiting — the one sanctioned way to block "under" it.
func (d *db) goodCondWait() {
	d.mu.Lock()
	for d.log == nil {
		d.flushCond.Wait()
	}
	d.mu.Unlock()
}

// goodGoroutineUnderMu starts the blocking work on a goroutine that does
// not hold the lock.
func (d *db) goodGoroutineUnderMu() {
	d.mu.Lock()
	defer d.mu.Unlock()
	go func() {
		d.flushedCh <- struct{}{}
	}()
}

// goodOtherLock is a mutex the analyzer does not track: pipeMu guards WAL
// I/O and syncing under it is the design.
type pipe struct {
	pipeMu sync.Mutex
	log    *file
}

func (p *pipe) goodSyncUnderPipeMu() error {
	p.pipeMu.Lock()
	defer p.pipeMu.Unlock()
	return p.log.Sync()
}

// netbox holds a connection guarded by a mutex the analyzer tracks.
type netbox struct {
	mu   sync.Mutex
	conn net.Conn
	addr string
	dial func(addr string) (net.Conn, error)
}

// badDialSeamUnderMu dials through a function field under the lock: the
// net.Dial it reaches is one call down, so the name is what gives it away.
func (n *netbox) badDialSeamUnderMu() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	conn, err := n.dial(n.addr) // want `dial network I/O while n\.mu is held`
	if err != nil {
		return err
	}
	n.conn = conn
	return nil
}

// badDialUnderMu dials while holding the lock: every other user of mu
// waits out the whole dial timeout.
func (n *netbox) badDialUnderMu() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	conn, err := net.Dial("tcp", n.addr) // want `net\.Dial network I/O while n\.mu is held`
	if err != nil {
		return err
	}
	n.conn = conn
	return nil
}

// badConnWriteUnderMu performs connection I/O inside the critical section.
func (n *netbox) badConnWriteUnderMu(payload []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, err := n.conn.Write(payload) // want `network I/O \(net Write\) while n\.mu is held`
	return err
}

// goodPoisonUnderMu closes the connection under the lock: Close unblocks
// pending I/O rather than performing any, and poisoning a dead conn inside
// the critical section is the established pattern.
func (n *netbox) goodPoisonUnderMu() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.conn.Close()
}

// goodPureNetHelper calls a pure net helper that never touches the wire.
func (n *netbox) goodPureNetHelper(host, port string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return net.JoinHostPort(host, port)
}

// badSuppressed shows the escape hatch with a reason.
func (d *db) badSuppressed() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Sync() //lint:allow lockheld fixture proves suppression works under a held lock
}
