package issl

import (
	"fmt"
	"io"
	"time"

	"repro/internal/crypto/prng"
)

// Reconnection. The paper's client talks to a watchdog-supervised
// board over a real wire: connections die — the board reboots, the hub
// drops a burst, somebody trips over the cable — and the client's job
// is to get back on with as little ceremony as possible. DialWithRetry
// redials with capped exponential backoff plus deterministic jitter
// and offers the previous session on every attempt, so a server whose
// cache survived (the paper's `protected` storage) grants the cheap
// abbreviated handshake and only a genuinely amnesiac server costs a
// full one.

// RetryPolicy shapes DialWithRetry's backoff. The zero value gets the
// defaults noted per field.
type RetryPolicy struct {
	// MaxAttempts is the total connection attempts before giving up
	// (default 5).
	MaxAttempts int
	// BaseDelay is the wait after the first failure (default 50ms);
	// it doubles per failure.
	BaseDelay time.Duration
	// MaxDelay caps the doubling (default 2s).
	MaxDelay time.Duration
}

// jitterPct spreads each backoff delay uniformly in ±20%, drawn from
// the Config's deterministic PRNG.
const jitterPct = 20

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// DialStats counts what reconnection cost.
type DialStats struct {
	Attempts        uint64 // transport dials attempted
	DialFailures    uint64 // transport dials that failed
	HandshakeFails  uint64 // transports that connected but failed to bind
	FullHandshakes  uint64 // successful binds that ran the full handshake
	Resumptions     uint64 // successful binds via abbreviated resumption
	ResumeFallbacks uint64 // resumption offers that degraded to a full handshake
}

// Dialer reconnects an issl client across transport failures, keeping
// the resumable session between attempts. Methods are not safe for
// concurrent use; a Dialer serves one logical client connection.
type Dialer struct {
	// Dial opens a fresh transport (e.g. a tcpip.Stack Connect). Required.
	Dial func() (io.ReadWriteCloser, error)
	// Config is the client handshake configuration. Config.Resume is
	// overridden per attempt with the Dialer's cached session.
	Config Config
	// Policy shapes the backoff; zero value = defaults.
	Policy RetryPolicy
	// sleep is the delay hook, defaulting to time.Sleep (the package's
	// tests substitute their own to observe the schedule).
	sleep func(time.Duration)

	session *Session
	stats   DialStats
}

// Stats returns a snapshot of the reconnect counters.
func (d *Dialer) Stats() DialStats { return d.stats }

// Session returns the currently cached resumable session, if any.
func (d *Dialer) Session() *Session { return d.session }

// ForgetSession drops the cached session so the next dial is full.
func (d *Dialer) ForgetSession() { d.session = nil }

// DialWithRetry dials and binds until one attempt yields a live secure
// connection or the policy's attempts are exhausted. Each attempt
// offers the cached session — sealed ticket preferred — for
// abbreviated resumption. A rejected offer is not an error and does
// not consume a retry slot: when the server declines on its own
// (stale ticket, evicted cache entry) the same connection completes a
// full handshake; when the offer poisons the handshake outright, the
// same attempt immediately re-dials clean and runs the full handshake
// before any backoff. Both degradations increment ResumeFallbacks and
// the issl.resume_fallback counter. The returned transport is owned by
// the caller (close it after the Conn).
func (d *Dialer) DialWithRetry() (*Conn, io.ReadWriteCloser, error) {
	if d.Dial == nil {
		return nil, nil, fmt.Errorf("%w: Dialer needs a Dial function", ErrConfig)
	}
	pol := d.Policy.withDefaults()
	sleep := d.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	fallbacks := d.Config.Metrics.Counter("issl.resume_fallback")
	delay := pol.BaseDelay
	var lastErr error
	for attempt := 1; ; attempt++ {
		d.stats.Attempts++
		tr, err := d.Dial()
		if err == nil {
			cfg := d.Config
			cfg.Resume = d.session
			conn, herr := BindClient(tr, cfg)
			if herr != nil && cfg.Resume != nil {
				// The resumption offer may itself be what failed (stale
				// cache, desynced state). That is the server's problem to
				// decline, not ours to pay a retry slot for: drop the
				// session and run the full handshake within this same
				// attempt, on a fresh transport, before any backoff.
				tr.Close()
				d.session = nil
				d.stats.ResumeFallbacks++
				fallbacks.Inc()
				if tr, err = d.Dial(); err == nil {
					cfg.Resume = nil
					conn, herr = BindClient(tr, cfg)
				}
			}
			if err == nil && herr == nil {
				if conn.Resumed() {
					d.stats.Resumptions++
				} else {
					d.stats.FullHandshakes++
					if cfg.Resume != nil {
						// We offered, the server declined and completed a
						// full handshake instead: a graceful server-side
						// fallback (its rejection telemetry says why).
						d.stats.ResumeFallbacks++
						fallbacks.Inc()
						d.session = nil
					}
				}
				if s := conn.Session(); s != nil {
					d.session = s
				}
				return conn, tr, nil
			}
			if err == nil {
				tr.Close()
				d.stats.HandshakeFails++
				lastErr = herr
			} else {
				d.stats.DialFailures++
				lastErr = err
			}
		} else {
			d.stats.DialFailures++
			lastErr = err
		}
		if attempt >= pol.MaxAttempts {
			return nil, nil, fmt.Errorf("issl: dial failed after %d attempts: %w", attempt, lastErr)
		}
		sleep(jitter(delay, d.Config.Rand))
		delay *= 2
		if delay > pol.MaxDelay {
			delay = pol.MaxDelay
		}
	}
}

// jitter spreads d uniformly across ±jitterPct%, deterministically via
// rng.
func jitter(d time.Duration, rng *prng.Xorshift) time.Duration {
	span := int(d) * jitterPct / 100
	if rng == nil || span <= 0 {
		return d
	}
	return d - time.Duration(span) + time.Duration(rng.Intn(2*span+1))
}
