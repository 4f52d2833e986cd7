package server

import (
	"crypto/rand"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	pgfmu "repro"
)

// session is one remote client's stateful context: its engine connection
// (which holds the transaction BEGIN opens), its server-side prepared
// statements, and an idle clock. All statement execution on a session
// serializes on mu — a session is a single logical connection, so two
// racing requests on the same id run one after the other (each still under
// its own request timeout).
type session struct {
	id string
	// mu is held for the whole of each statement execution (including
	// response streaming). The reaper only removes a session it can TryLock,
	// so an in-flight statement is never reaped under.
	mu sync.Mutex
	// conn runs the session's statements and holds its open transaction.
	conn *pgfmu.Conn
	// stmts holds server-side prepared statements, prepared on conn, by
	// handle id.
	stmts    map[string]*pgfmu.Stmt
	stmtSeq  int
	lastUsed atomic.Int64 // unix nanos
	// gone flips when the session is closed or reaped; a request that
	// acquired a stale pointer re-checks it under mu.
	gone bool
}

func (s *session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// finish releases the session's engine resources: the open transaction is
// rolled back and every prepared statement closed. Caller holds s.mu.
func (s *session) finish() {
	_ = s.conn.Close()
	for id, st := range s.stmts {
		_ = st.Close()
		delete(s.stmts, id)
	}
	s.gone = true
}

// sessionManager owns the session table and the idle reaper.
type sessionManager struct {
	mu       sync.Mutex
	sessions map[string]*session
	idle     time.Duration
	max      int

	created atomic.Uint64
	reaped  atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

func newSessionManager(idle time.Duration, max int) *sessionManager {
	sm := &sessionManager{
		sessions: make(map[string]*session),
		idle:     idle,
		max:      max,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go sm.reapLoop()
	return sm
}

var errSessionLimit = fmt.Errorf("server: session limit reached")

// create registers a fresh session running its statements on conn.
func (sm *sessionManager) create(conn *pgfmu.Conn) (*session, error) {
	id, err := newSessionID()
	if err != nil {
		return nil, err
	}
	s := &session{id: id, conn: conn, stmts: make(map[string]*pgfmu.Stmt)}
	s.touch()
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.max > 0 && len(sm.sessions) >= sm.max {
		return nil, errSessionLimit
	}
	sm.sessions[s.id] = s
	sm.created.Add(1)
	return s, nil
}

// newSessionID returns a random (version 4) UUID in the canonical
// 8-4-4-4-12 hex form.
func newSessionID() (string, error) {
	var u [16]byte
	if _, err := rand.Read(u[:]); err != nil {
		return "", fmt.Errorf("server: session id: %w", err)
	}
	u[6] = u[6]&0x0f | 0x40 // version 4
	u[8] = u[8]&0x3f | 0x80 // RFC 4122 variant
	return fmt.Sprintf("%x-%x-%x-%x-%x", u[0:4], u[4:6], u[6:8], u[8:10], u[10:16]), nil
}

// acquire locks the named session for one statement execution. The caller
// must release() it. A nil return means the id is unknown (or was reaped).
func (sm *sessionManager) acquire(id string) *session {
	sm.mu.Lock()
	s := sm.sessions[id]
	sm.mu.Unlock()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.gone {
		s.mu.Unlock()
		return nil
	}
	s.touch()
	return s
}

// release unlocks a session acquired with acquire, refreshing its idle
// clock so the reap horizon counts from the end of the statement.
func (sm *sessionManager) release(s *session) {
	s.touch()
	s.mu.Unlock()
}

// close tears one session down (client DELETE). False if unknown.
func (sm *sessionManager) close(id string) bool {
	sm.mu.Lock()
	s := sm.sessions[id]
	delete(sm.sessions, id)
	sm.mu.Unlock()
	if s == nil {
		return false
	}
	s.mu.Lock()
	s.finish()
	s.mu.Unlock()
	return true
}

// count returns the number of live sessions.
func (sm *sessionManager) count() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return len(sm.sessions)
}

// activeTxns counts sessions with an open transaction.
func (sm *sessionManager) activeTxns() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	n := 0
	for _, s := range sm.sessions {
		if s.conn.InTx() {
			n++
		}
	}
	return n
}

// reapLoop expires idle sessions. A session busy with a statement
// (TryLock fails) is never expired, regardless of wall-clock idleness.
func (sm *sessionManager) reapLoop() {
	defer close(sm.done)
	tick := sm.idle / 4
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-sm.stop:
			return
		case <-t.C:
			sm.reapOnce(time.Now())
		}
	}
}

// reapOnce removes every session idle past the horizon. It is exported to
// tests via the server's reap helper.
func (sm *sessionManager) reapOnce(now time.Time) int {
	horizon := now.Add(-sm.idle).UnixNano()
	sm.mu.Lock()
	var expired []*session
	for _, s := range sm.sessions {
		if s.lastUsed.Load() < horizon {
			expired = append(expired, s)
		}
	}
	sm.mu.Unlock()

	n := 0
	for _, s := range expired {
		if !s.mu.TryLock() {
			continue // mid-statement; its release() resets the clock
		}
		// Re-check under the lock: the statement that beat us here may have
		// refreshed the clock or the client may have closed it already.
		if s.gone || s.lastUsed.Load() >= horizon {
			s.mu.Unlock()
			continue
		}
		s.finish()
		s.mu.Unlock()
		sm.mu.Lock()
		delete(sm.sessions, s.id)
		sm.mu.Unlock()
		sm.reaped.Add(1)
		n++
	}
	return n
}

// shutdown stops the reaper and tears down every session, rolling back
// orphaned transactions. Called after the HTTP server has drained, so no
// statement holds a session lock for long.
func (sm *sessionManager) shutdown() {
	close(sm.stop)
	<-sm.done
	sm.mu.Lock()
	all := make([]*session, 0, len(sm.sessions))
	for _, s := range sm.sessions {
		all = append(all, s)
	}
	sm.sessions = make(map[string]*session)
	sm.mu.Unlock()
	for _, s := range all {
		s.mu.Lock()
		s.finish()
		s.mu.Unlock()
	}
}
