//! Linux `epoll`/`eventfd` for the HTTP reactor, via the libc std links.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

pub const EPOLLIN: u32 = 0x1;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLONESHOT: u32 = 1 << 30;
pub const EPOLL_CTL_ADD: i32 = 1;
pub const EPOLL_CTL_MOD: i32 = 3;
const CLOEXEC: i32 = 0o2_000_000;

/// `struct epoll_event` (packed on x86-64 only) and its registered key.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    events: u32,
    pub key: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, max: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// A syscall's non-negative result, else its `errno`.
fn check(ret: i32) -> io::Result<i32> {
    (ret >= 0)
        .then_some(ret)
        .ok_or_else(io::Error::last_os_error)
}

/// An epoll set with an `eventfd` in it, which [`Epoll::wake`] makes
/// readable until [`Epoll::drain_wake`]; both are closed on drop.
pub struct Epoll {
    fd: File,
    wake: File,
}

impl Epoll {
    pub fn new(wake_key: u64) -> io::Result<Epoll> {
        // SAFETY: each descriptor is fresh from the kernel and owned here.
        let fd = unsafe { File::from_raw_fd(check(epoll_create1(CLOEXEC))?) };
        let wake = unsafe { File::from_raw_fd(check(eventfd(0, CLOEXEC))?) };
        let epoll = Epoll { fd, wake };
        epoll.ctl(EPOLL_CTL_ADD, epoll.wake.as_raw_fd(), EPOLLIN, wake_key)?;
        Ok(epoll)
    }

    pub fn ctl(&self, op: i32, fd: RawFd, events: u32, key: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, key };
        // SAFETY: `event` is a valid `epoll_event` for the whole call.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) }).map(drop)
    }

    /// Fills `events`, waiting up to `timeout` rounded up to ms (or forever); 0 on `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let ms = timeout.map_or(-1, |t| {
            t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
        });
        let (fd, max) = (self.fd.as_raw_fd(), events.len() as i32);
        // SAFETY: the kernel writes at most `max` entries into `events`.
        match check(unsafe { epoll_wait(fd, events.as_mut_ptr(), max, ms) }) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            n => n.map(|n| n as usize),
        }
    }

    pub fn wake(&self) {
        let _ = (&self.wake).write(&1u64.to_ne_bytes());
    }
    pub fn drain_wake(&self) {
        let _ = (&self.wake).read(&mut [0u8; 8]);
    }
}
