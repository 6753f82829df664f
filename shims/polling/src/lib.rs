//! Offline shim for `polling` 2.8: a readiness [`Poller`] over Linux
//! `ppoll(2)`, woken from other threads through a `UnixStream` pair.
//!
//! Upstream semantics kept: interest is oneshot (a delivered event disarms
//! its source until [`Poller::modify`] re-arms it), [`Poller::wait`] appends
//! to the caller's vector, and [`Poller::notify`] wakes the current or the
//! next `wait` without producing an event. Deviations are listed in
//! `shims/README.md`.

use std::collections::btree_map::{BTreeMap, Entry};
use std::io::{self, ErrorKind, Read as _, Write as _};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;
/// Conditions `ppoll` reports whatever was asked; surfaced as readiness in
/// every armed direction so the owner's next read or write sees the error.
const POLL_FAULT: c_short = POLLERR | POLLHUP | POLLNVAL;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` (`time_t` is `long` on Linux).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Interest in, or readiness of, one registered source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// Caller-chosen identifier reported back with readiness.
    pub key: usize,
    /// Readable interest / readiness.
    pub readable: bool,
    /// Writable interest / readiness.
    pub writable: bool,
}

impl Event {
    /// Interest in readability only.
    pub fn readable(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// No interest: the source stays registered but is never reported.
    pub fn none(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: false,
        }
    }
}

/// Waits for readiness on registered file descriptors.
///
/// The caller keeps ownership of every source and must [`Poller::delete`]
/// it before closing the descriptor.
pub struct Poller {
    /// Registered descriptors with their current (oneshot) interest.
    sources: Mutex<BTreeMap<RawFd, Event>>,
    notify_rx: UnixStream,
    notify_tx: UnixStream,
}

impl Poller {
    /// Creates a poller and its notification pair.
    ///
    /// # Errors
    ///
    /// Propagates socket-pair creation failures.
    pub fn new() -> io::Result<Poller> {
        let (notify_rx, notify_tx) = UnixStream::pair()?;
        notify_rx.set_nonblocking(true)?;
        notify_tx.set_nonblocking(true)?;
        Ok(Poller {
            sources: Mutex::new(BTreeMap::new()),
            notify_rx,
            notify_tx,
        })
    }

    /// Each operation on the map is a single insert, assignment or removal,
    /// so a panic elsewhere cannot leave it half-updated.
    fn sources(&self) -> MutexGuard<'_, BTreeMap<RawFd, Event>> {
        self.sources.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `source` with `interest`.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` if the descriptor is already registered.
    pub fn add(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        match self.sources().entry(source.as_raw_fd()) {
            Entry::Occupied(_) => Err(ErrorKind::AlreadyExists.into()),
            Entry::Vacant(slot) => {
                slot.insert(interest);
                Ok(())
            }
        }
    }

    /// Replaces the interest of a registered source, re-arming it.
    ///
    /// # Errors
    ///
    /// `NotFound` if the descriptor is not registered.
    pub fn modify(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        match self.sources().get_mut(&source.as_raw_fd()) {
            Some(current) => {
                *current = interest;
                Ok(())
            }
            None => Err(ErrorKind::NotFound.into()),
        }
    }

    /// Unregisters a source.
    ///
    /// # Errors
    ///
    /// `NotFound` if the descriptor is not registered.
    pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
        match self.sources().remove(&source.as_raw_fd()) {
            Some(_) => Ok(()),
            None => Err(ErrorKind::NotFound.into()),
        }
    }

    /// Blocks until an armed source is ready, [`Poller::notify`] is called,
    /// or `timeout` (`None`: forever) elapses. Appends one event per ready
    /// source to `events`, disarms those sources, and returns how many were
    /// appended. A signal interrupting the wait returns `Ok(0)`.
    ///
    /// # Errors
    ///
    /// Propagates `ppoll` failures other than `EINTR`.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let mut fds = vec![PollFd {
            fd: self.notify_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        fds.extend(self.sources().iter().map(|(&fd, &ev)| {
            let events =
                if ev.readable { POLLIN } else { 0 } | if ev.writable { POLLOUT } else { 0 };
            PollFd {
                // A negative descriptor is skipped, so a disarmed source
                // cannot report a hang-up it never asked about.
                fd: if events == 0 { -1 } else { fd },
                events,
                revents: 0,
            }
        }));
        let ts = timeout.map(|t| Timespec {
            tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
            // Below 10^9, so it fits a 32-bit `long` too.
            tv_nsec: t.subsec_nanos() as c_long,
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `fds` is a live, exclusively borrowed array of exactly
        // `fds.len()` `#[repr(C)]` pollfd records; `ts_ptr` is null or
        // points at `ts`, a timespec with `tv_nsec` below 10^9 that outlives
        // the call; a null sigmask leaves the signal mask unchanged. ppoll
        // writes only the `revents` fields and retains no pointer.
        let n = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                ts_ptr,
                std::ptr::null(),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            return match err.kind() {
                ErrorKind::Interrupted => Ok(0),
                _ => Err(err),
            };
        }
        if fds[0].revents != 0 {
            let mut buf = [0u8; 64];
            while matches!((&self.notify_rx).read(&mut buf), Ok(n) if n > 0) {}
        }
        let before = events.len();
        let mut sources = self.sources();
        for pfd in fds.iter().skip(1).filter(|p| p.revents != 0) {
            // Deleted while the lock was released: not reported.
            let Some(interest) = sources.get_mut(&pfd.fd) else {
                continue;
            };
            let ready = Event {
                key: interest.key,
                readable: interest.readable && pfd.revents & (POLLIN | POLL_FAULT) != 0,
                writable: interest.writable && pfd.revents & (POLLOUT | POLL_FAULT) != 0,
            };
            if ready.readable || ready.writable {
                events.push(ready);
                *interest = Event::none(interest.key);
            }
        }
        Ok(events.len() - before)
    }

    /// Wakes the thread blocked in [`Poller::wait`], or the next caller if
    /// none is blocked. Notifications coalesce.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures other than a full buffer (which
    /// means a wakeup is already pending).
    pub fn notify(&self) -> io::Result<()> {
        match (&self.notify_tx).write(&[1]) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn readable_after_peer_write() {
        let poller = Poller::new().unwrap();
        let (a, mut b) = pair();
        poller.add(&a, Event::readable(7)).unwrap();
        b.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events, vec![Event::readable(7)]);
    }

    #[test]
    fn writable_socket_reports_writable() {
        let poller = Poller::new().unwrap();
        let (a, _b) = pair();
        let both = Event {
            key: 3,
            readable: true,
            writable: true,
        };
        poller.add(&a, both).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let writable_only = Event {
            readable: false,
            ..both
        };
        assert_eq!(events, vec![writable_only]);
    }

    #[test]
    fn notify_wakes_a_wait_on_another_thread() {
        let poller = Poller::new().unwrap();
        let (a, _b) = pair();
        poller.add(&a, Event::readable(1)).unwrap();
        let start = Instant::now();
        let n = thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut events = Vec::new();
                poller
                    .wait(&mut events, Some(Duration::from_secs(10)))
                    .unwrap()
            });
            poller.notify().unwrap();
            waiter.join().unwrap()
        });
        assert_eq!(n, 0, "a notification produces no event");
        assert!(start.elapsed() < Duration::from_secs(5));
        // The notification was consumed: the next wait runs to its timeout.
        let t = Instant::now();
        poller
            .wait(&mut Vec::new(), Some(Duration::from_millis(20)))
            .unwrap();
        assert!(t.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn timeout_elapses_with_no_events() {
        let poller = Poller::new().unwrap();
        let (a, _b) = pair();
        poller.add(&a, Event::readable(1)).unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn delete_stops_reporting() {
        let poller = Poller::new().unwrap();
        let (a, mut b) = pair();
        poller.add(&a, Event::readable(1)).unwrap();
        b.write_all(b"x").unwrap();
        poller.delete(&a).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
        assert_eq!(poller.delete(&a).unwrap_err().kind(), ErrorKind::NotFound);
    }

    #[test]
    fn interest_is_oneshot_until_modified() {
        let poller = Poller::new().unwrap();
        let (a, mut b) = pair();
        poller.add(&a, Event::readable(5)).unwrap();
        assert_eq!(
            poller.add(&a, Event::readable(5)).unwrap_err().kind(),
            ErrorKind::AlreadyExists
        );
        b.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let timeout = Some(Duration::from_millis(20));
        assert_eq!(poller.wait(&mut events, timeout).unwrap(), 1);
        // Still readable, but disarmed by the delivery.
        assert_eq!(poller.wait(&mut events, timeout).unwrap(), 0);
        poller.modify(&a, Event::readable(6)).unwrap();
        assert_eq!(poller.wait(&mut events, timeout).unwrap(), 1);
        assert_eq!(events, vec![Event::readable(5), Event::readable(6)]);
    }
}
