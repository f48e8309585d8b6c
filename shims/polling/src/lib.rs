//! Offline shim for the `polling` crate: portable OS readiness
//! polling behind a safe facade.
//!
//! The massive-fanout TCP endpoint layer needs to know *which* of its
//! thousands of sockets are ready without scanning all of them. The
//! kernel interface for that is `epoll` on Linux and the portable
//! `poll(2)` everywhere else on Unix; both are raw syscalls, and the
//! engine crates all carry `#![forbid(unsafe_code)]`, so the unsafe
//! FFI surface lives here — lint-contained, with every call site
//! documenting its invariant (`cargo run -p xtask -- analyze` enforces
//! both the containment and the `// SAFETY:` comments).
//!
//! The safe API mirrors the real `polling` crate's shape (`Poller`,
//! `Event`, add/modify/delete/wait) with one deliberate difference:
//! registrations here are **level-triggered and persistent**, not
//! oneshot — the endpoint layer re-registers interest only on edge
//! transitions (write interest appears when an output buffer becomes
//! non-empty and disappears when it drains), so persistent level
//! triggering is the cheaper contract.
//!
//! Backends:
//!
//! * [`Poller::new`] — `epoll` on Linux, `poll(2)` on other Unixes;
//! * [`Poller::portable`] — forces the `poll(2)` backend (O(registered)
//!   per wait instead of O(ready); exists so the fallback is testable
//!   on Linux too).

#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// One readiness event: the `key` the file descriptor was registered
/// under plus the directions that are ready. Error/hangup conditions
/// surface as `readable` (a read will then observe the EOF or error —
/// the same convention the real crate uses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen registration key (the endpoint layer stores slab
    /// tokens here).
    pub key: usize,
    /// A read would make progress (data, EOF, error, or hangup).
    pub readable: bool,
    /// A write would make progress.
    pub writable: bool,
}

/// Interest directions for a registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when a read would make progress.
    pub readable: bool,
    /// Wake when a write would make progress.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Registered but silent (parked: no wakeups either way).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// A readiness poller over one OS backend.
///
/// Not `Sync`: the endpoint layer owns its poller exclusively, so the
/// shim does not pay for cross-thread registration safety.
pub struct Poller {
    backend: Backend,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Poll(pollfd::PollSet),
}

impl Poller {
    /// The best backend for the platform: `epoll` on Linux (O(ready)
    /// wakeups), `poll(2)` elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Ok(Poller {
                backend: Backend::Epoll(epoll::Epoll::new()?),
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Self::portable()
        }
    }

    /// The portable `poll(2)` backend, regardless of platform. Wait
    /// cost is O(registered descriptors); correctness is identical to
    /// the epoll backend (level-triggered, persistent registrations).
    pub fn portable() -> io::Result<Poller> {
        Ok(Poller {
            backend: Backend::Poll(pollfd::PollSet::new()),
        })
    }

    /// Backend name, for reports.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Poll(_) => "poll",
        }
    }

    /// Registers `source` under `key` with `interest`. One registration
    /// per descriptor; registering the same fd twice is an error on the
    /// epoll backend (EEXIST) and replaces on the poll backend — don't.
    pub fn add(&mut self, source: &impl AsRawFd, key: usize, interest: Interest) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(epoll::CTL_ADD, fd, key, interest),
            Backend::Poll(p) => p.add(fd, key, interest),
        }
    }

    /// Changes the interest set (and key) of an already-registered
    /// descriptor.
    pub fn modify(
        &mut self,
        source: &impl AsRawFd,
        key: usize,
        interest: Interest,
    ) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(epoll::CTL_MOD, fd, key, interest),
            Backend::Poll(p) => p.modify(fd, key, interest),
        }
    }

    /// Removes a registration. Call before closing the descriptor.
    pub fn delete(&mut self, source: &impl AsRawFd) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(epoll::CTL_DEL, fd, 0, Interest::NONE),
            Backend::Poll(p) => p.delete(fd),
        }
    }

    /// Appends ready events to `events`; returns how many were
    /// appended. `timeout` of `Some(ZERO)` is a non-blocking check (the
    /// endpoint layer's pump), `None` blocks until something is ready.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.wait(events, timeout_ms),
            Backend::Poll(p) => p.wait(events, timeout_ms),
        }
    }
}

/// Raises the process's open-file soft limit towards `want` (capped at
/// the hard limit), returning the resulting soft limit. Massive-fanout
/// benches call this before opening tens of thousands of sockets; a
/// refusal is not an error — the caller sizes its sweep to the returned
/// limit.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    sys::raise_nofile_limit(want)
}

// ---------------------------------------------------------------------
// Raw syscall surface. Everything below is the FFI boundary; nothing
// outside this shim may speak epoll_ctl / pollfd directly (lint rule
// `raw-poll-outside-shim`).
// ---------------------------------------------------------------------

mod sys {
    use std::io;
    use std::os::raw::{c_int, c_uint};

    #[repr(C)]
    struct RLimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    const RLIMIT_NOFILE: c_int = 7;

    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }

    /// Errno-to-io::Error for a syscall that signals failure with -1.
    pub fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
        let mut lim = RLimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: `lim` is a valid, writable RLimit; getrlimit writes
        // exactly one RLimit through the pointer.
        cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
        let target = want.min(lim.rlim_max);
        if target > lim.rlim_cur {
            let new = RLimit {
                rlim_cur: target,
                rlim_max: lim.rlim_max,
            };
            // SAFETY: `new` is a valid RLimit read (not retained) by
            // the kernel; raising cur towards the unchanged hard limit
            // is always permitted.
            cvt(unsafe { setrlimit(RLIMIT_NOFILE, &new) })?;
            Ok(target)
        } else {
            Ok(lim.rlim_cur)
        }
    }

    /// `poll(2)` — POSIX, hence the portable fallback.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_uint, timeout: c_int) -> c_int;
    }

    pub fn poll_all(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` points at `fds.len()` valid PollFd records the
        // kernel reads (fd, events) and writes (revents) in place; the
        // slice outlives the call.
        let n = cvt(unsafe { poll(fds.as_mut_ptr(), fds.len() as c_uint, timeout_ms) });
        match n {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    #[cfg(target_os = "linux")]
    pub mod linux {
        use super::cvt;
        use std::io;
        use std::os::raw::c_int;

        /// Matches the kernel ABI: packed on x86-64, where the struct
        /// would otherwise pad `events` to 8 bytes.
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub u64: u64,
        }

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;

        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        const EPOLL_CLOEXEC: c_int = 0o2000000;

        extern "C" {
            fn epoll_create1(flags: c_int) -> c_int;
            fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
        }

        pub fn create() -> io::Result<c_int> {
            // SAFETY: plain fd-returning syscall, no pointers.
            cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
        }

        pub fn ctl(epfd: c_int, op: c_int, fd: c_int, ev: &mut EpollEvent) -> io::Result<()> {
            // SAFETY: `ev` is a valid EpollEvent the kernel copies out
            // of during the call; epfd/fd validity is the caller's
            // resource management, and an invalid fd surfaces as EBADF,
            // not UB.
            cvt(unsafe { epoll_ctl(epfd, op, fd, ev) }).map(|_| ())
        }

        pub fn wait(epfd: c_int, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            let cap = buf.len() as c_int;
            // SAFETY: `buf` points at `cap` writable EpollEvent slots;
            // the kernel writes at most `cap` of them and returns how
            // many.
            let n = cvt(unsafe { epoll_wait(epfd, buf.as_mut_ptr(), cap, timeout_ms) });
            match n {
                Ok(n) => Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
                Err(e) => Err(e),
            }
        }

        pub fn close(fd: c_int) {
            // SAFETY: the Epoll owner holds the only copy of this fd
            // and is being dropped; double-close is impossible.
            let _ = unsafe { super::close(fd) };
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::sys::linux as raw;
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    pub const CTL_ADD: i32 = raw::EPOLL_CTL_ADD;
    pub const CTL_DEL: i32 = raw::EPOLL_CTL_DEL;
    pub const CTL_MOD: i32 = raw::EPOLL_CTL_MOD;

    pub struct Epoll {
        epfd: RawFd,
        /// Reused kernel-event buffer; grows to the largest burst seen.
        buf: Vec<raw::EpollEvent>,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            Ok(Epoll {
                epfd: raw::create()?,
                buf: vec![raw::EpollEvent { events: 0, u64: 0 }; 1024],
            })
        }

        pub fn ctl(
            &mut self,
            op: i32,
            fd: RawFd,
            key: usize,
            interest: Interest,
        ) -> io::Result<()> {
            let mut events = raw::EPOLLRDHUP;
            if interest.readable {
                events |= raw::EPOLLIN;
            }
            if interest.writable {
                events |= raw::EPOLLOUT;
            }
            let mut ev = raw::EpollEvent {
                events,
                u64: key as u64,
            };
            raw::ctl(self.epfd, op, fd, &mut ev)
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            let n = raw::wait(self.epfd, &mut self.buf, timeout_ms)?;
            for ev in &self.buf[..n] {
                let bits = ev.events;
                let key = ev.u64;
                out.push(Event {
                    key: key as usize,
                    readable: bits
                        & (raw::EPOLLIN | raw::EPOLLERR | raw::EPOLLHUP | raw::EPOLLRDHUP)
                        != 0,
                    writable: bits & (raw::EPOLLOUT | raw::EPOLLERR | raw::EPOLLHUP) != 0,
                });
            }
            if n == self.buf.len() {
                // A full buffer means the burst may have been larger;
                // grow so the next wait drains it in one call.
                self.buf
                    .resize(n * 2, raw::EpollEvent { events: 0, u64: 0 });
            }
            Ok(n)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            raw::close(self.epfd);
        }
    }
}

mod pollfd {
    use super::sys;
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    /// The portable backend: a dense registration table rebuilt into a
    /// `pollfd` array per wait. O(registered) per wait — the price of
    /// portability; the epoll backend is O(ready).
    pub struct PollSet {
        fds: Vec<sys::PollFd>,
        keys: Vec<usize>,
    }

    impl PollSet {
        pub fn new() -> PollSet {
            PollSet {
                fds: Vec::new(),
                keys: Vec::new(),
            }
        }

        fn events_for(interest: Interest) -> i16 {
            let mut ev = 0i16;
            if interest.readable {
                ev |= sys::POLLIN;
            }
            if interest.writable {
                ev |= sys::POLLOUT;
            }
            ev
        }

        fn position(&self, fd: RawFd) -> Option<usize> {
            self.fds.iter().position(|p| p.fd == fd)
        }

        pub fn add(&mut self, fd: RawFd, key: usize, interest: Interest) -> io::Result<()> {
            if self.position(fd).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.fds.push(sys::PollFd {
                fd,
                events: Self::events_for(interest),
                revents: 0,
            });
            self.keys.push(key);
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, key: usize, interest: Interest) -> io::Result<()> {
            let i = self
                .position(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds[i].events = Self::events_for(interest);
            self.keys[i] = key;
            Ok(())
        }

        pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self
                .position(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds.swap_remove(i);
            self.keys.swap_remove(i);
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            if self.fds.is_empty() {
                return Ok(0);
            }
            let n = sys::poll_all(&mut self.fds, timeout_ms)?;
            if n == 0 {
                return Ok(0);
            }
            let mut appended = 0;
            for (p, &key) in self.fds.iter().zip(&self.keys) {
                let re = p.revents;
                if re == 0 {
                    continue;
                }
                out.push(Event {
                    key,
                    readable: re & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0,
                    writable: re & (sys::POLLOUT | sys::POLLERR | sys::POLLHUP) != 0,
                });
                appended += 1;
            }
            Ok(appended)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    fn backends() -> Vec<Poller> {
        let mut v = vec![Poller::portable().unwrap()];
        if cfg!(target_os = "linux") {
            v.push(Poller::new().unwrap());
        }
        v
    }

    #[test]
    fn readable_only_when_data_pending() {
        for mut poller in backends() {
            let (mut a, mut b) = pair();
            poller.add(&b, 7, Interest::READABLE).unwrap();
            let mut events = Vec::new();
            // Nothing written yet: a zero-timeout wait reports nothing.
            let n = poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
            assert_eq!(n, 0, "{}", poller.backend_name());
            a.write_all(b"x").unwrap();
            // Readiness may take a scheduler tick on loopback.
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert_eq!(n, 1, "{}", poller.backend_name());
            assert_eq!(events[0].key, 7);
            assert!(events[0].readable);
            drop(a);
            drop(poller); // deregistration via drop is fine for epoll
            let mut buf = [0u8; 8];
            assert_eq!(b.read(&mut buf).unwrap(), 1);
        }
    }

    #[test]
    fn modify_flips_interest_and_delete_unregisters() {
        for mut poller in backends() {
            let (mut a, b) = pair();
            poller.add(&b, 1, Interest::NONE).unwrap();
            a.write_all(b"ping").unwrap();
            let mut events = Vec::new();
            // Parked: data pending but no interest, no wakeup.
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
            poller.modify(&b, 2, Interest::BOTH).unwrap();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert_eq!(n, 1);
            assert_eq!(events[0].key, 2);
            assert!(events[0].readable && events[0].writable);
            poller.delete(&b).unwrap();
            events.clear();
            assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        }
    }

    #[test]
    fn hangup_reports_readable() {
        for mut poller in backends() {
            let (a, b) = pair();
            poller.add(&b, 3, Interest::READABLE).unwrap();
            drop(a);
            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert!(n >= 1, "{}", poller.backend_name());
            assert!(events[0].readable, "hangup must surface as readable");
        }
    }

    #[test]
    fn nofile_limit_is_queryable_and_monotone() {
        let now = raise_nofile_limit(0).unwrap();
        assert!(now > 0);
        let after = raise_nofile_limit(now).unwrap();
        assert!(after >= now);
    }
}
