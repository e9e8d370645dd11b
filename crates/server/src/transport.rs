//! The byte-stream seam between the protocol and the network, plus the
//! network adapter of the one fault injector.
//!
//! Everything the server and client do to a connection goes through the
//! [`Transport`] trait — read, write, timeouts, a hangup probe — with
//! two implementations:
//!
//! * [`std::net::TcpStream`]: the production transport; a thin
//!   delegation.
//! * [`ChaosNet`]: a seed-driven fault-injecting wrapper over any
//!   transport. It perturbs traffic at scheduled injection points —
//!   stalls ([`Fault::Stall`]), short writes ([`Fault::ShortWrite`]),
//!   connection resets ([`Fault::Reset`]), and single-bit corruption
//!   ([`Fault::BitFlip`]) — so the retry/timeout/checksum policies can
//!   be exercised in-process, reproducibly, without `tc` or firewall
//!   tricks.
//!
//! One schedule, two adapters: `ChaosNet` is `qf_storage`'s
//! [`ChaosStream`] over a `Box<dyn Transport>`, drawing from the same
//! [`FaultSchedule`] type `qf_storage::ChaosFs` draws from. This module
//! only declares the wire's fault menu (reads and writes, in the
//! [`OpClass`] vocabulary), how a reset severs the real connection, and
//! the [`Transport`] plumbing.
//!
//! Determinism: every faultable operation draws a number from a shared
//! atomic counter and hashes it (splitmix64) with the seed, so one
//! [`NetChaos`] handle yields the same fault sequence for the same
//! sequence of operations — including across reconnects, which is what
//! lets a chaos-matrix test drive a retrying client deterministically.
//! Tests can also pin exact faults with [`NetChaos::with_fault`] ("the
//! 3rd read stalls"), independent of the random stream.
//!
//! Faults that *lie* (bit flips) are precisely what the `QFN2` frame
//! checksums in [`crate::frame`] exist to catch: a corrupted frame is
//! always detected by the verifying reader and surfaced as a typed
//! `proto` error, never served as a garbage parse.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use qf_storage::{ChaosStream, Fault, FaultSchedule, OpClass, Sever};

/// A bidirectional byte stream the framed protocol can run over.
pub trait Transport: Read + Write + Send {
    /// Bound how long a single read may block (`None` = forever).
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()>;
    /// Bound how long a single write may block (`None` = forever).
    fn set_write_timeout(&mut self, dur: Option<Duration>) -> io::Result<()>;
    /// Non-destructive liveness probe: has the peer hung up? Must not
    /// consume buffered data and must return quickly. Used by the
    /// server to detect abandoned requests while a job is in flight.
    fn peer_gone(&mut self) -> bool;
    /// Tear the connection down (both directions), unblocking any
    /// reader on the other side.
    fn shutdown(&mut self) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }

    fn set_write_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, dur)
    }

    fn peer_gone(&mut self) -> bool {
        // A 1 ms peeked read: EOF means the peer closed; data or a
        // timeout means it is still there. The previous timeout is
        // restored so the probe is invisible to the frame reader.
        let saved = TcpStream::read_timeout(self).ok().flatten();
        if TcpStream::set_read_timeout(self, Some(Duration::from_millis(1))).is_err() {
            return true;
        }
        let mut b = [0u8; 1];
        let gone = match self.peek(&mut b) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                false
            }
            Err(_) => true,
        };
        let _ = TcpStream::set_read_timeout(self, saved);
        gone
    }

    fn shutdown(&mut self) -> io::Result<()> {
        TcpStream::shutdown(self, std::net::Shutdown::Both)
    }
}

/// The wire's fault menu: what [`NetChaos`]'s random stream may pick
/// for a read and for a write, in the order it indexes them.
fn net_menu(class: OpClass) -> &'static [Fault] {
    match class {
        OpClass::Read => &[Fault::Stall, Fault::Reset, Fault::BitFlip],
        _ => &[
            Fault::Stall,
            Fault::ShortWrite,
            Fault::Reset,
            Fault::BitFlip,
        ],
    }
}

/// Shared chaos driver: one seed-keyed fault stream that survives
/// reconnects. [`NetChaos::wrap`] produces a [`ChaosNet`] transport
/// drawing from this stream; wrapping each reconnected socket with the
/// same handle keeps the whole session deterministic.
#[derive(Debug, Clone)]
pub struct NetChaos(Arc<FaultSchedule>);

impl NetChaos {
    /// Random faults driven by `seed`, roughly one per `fault_every`
    /// faultable operations.
    pub fn seeded(seed: u64, fault_every: u64) -> NetChaos {
        NetChaos(Arc::new(FaultSchedule::new(seed, fault_every)))
    }

    /// No random faults; only faults pinned via [`NetChaos::with_fault`].
    pub fn quiet() -> NetChaos {
        NetChaos::seeded(0, 0)
    }

    /// Pin a fault: the `nth` (1-based) occurrence of `op` (a read or a
    /// write) suffers `fault`, regardless of the random stream.
    pub fn with_fault(self, op: OpClass, nth: u64, fault: Fault) -> NetChaos {
        self.0.pin(op, nth, fault);
        self
    }

    /// Wrap a transport so its traffic draws faults from this stream.
    pub fn wrap(&self, inner: Box<dyn Transport>) -> ChaosNet {
        ChaosStream::new(inner, Arc::clone(&self.0), net_menu)
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.0.injected()
    }

    /// The sequence of injected faults (op, fault), for assertions.
    pub fn injection_log(&self) -> Vec<(OpClass, Fault)> {
        self.0.injection_log()
    }
}

/// A fault-injecting transport over any inner [`Transport`]: the shared
/// [`ChaosStream`]. Created by [`NetChaos::wrap`]; all clones of one
/// [`NetChaos`] share one fault stream.
pub type ChaosNet = ChaosStream<Box<dyn Transport>>;

/// A [`Fault::Reset`] shuts the real connection down, so the peer sees
/// it too.
impl Sever for Box<dyn Transport> {
    fn sever(&mut self) {
        let _ = self.shutdown();
    }
}

impl Transport for ChaosNet {
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.get_mut().set_read_timeout(dur)
    }

    fn set_write_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.get_mut().set_write_timeout(dur)
    }

    fn peer_gone(&mut self) -> bool {
        self.severed() || self.get_mut().peer_gone()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        self.get_mut().shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};

    /// An in-memory loopback transport for unit tests: what one side
    /// writes, the same side reads back.
    #[derive(Default)]
    struct Loopback {
        buf: std::io::Cursor<Vec<u8>>,
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.buf.read(buf)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let pos = self.buf.position();
            self.buf.set_position(self.buf.get_ref().len() as u64);
            let n = self.buf.write(buf)?;
            self.buf.set_position(pos);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Transport for Loopback {
        fn set_read_timeout(&mut self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn set_write_timeout(&mut self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn peer_gone(&mut self) -> bool {
            false
        }
        fn shutdown(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn quiet_chaos_is_transparent() {
        let chaos = NetChaos::quiet();
        let mut t = chaos.wrap(Box::new(Loopback::default()));
        write_frame(&mut t, b"hello").unwrap();
        assert_eq!(read_frame(&mut t).unwrap().unwrap(), b"hello");
        assert_eq!(chaos.injected(), 0);
    }

    #[test]
    fn scheduled_reset_kills_the_connection_permanently() {
        let chaos = NetChaos::quiet().with_fault(OpClass::Write, 2, Fault::Reset);
        let mut t = chaos.wrap(Box::new(Loopback::default()));
        assert!(t.write(b"first").is_ok());
        let err = t.write(b"second").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Dead is dead: later operations fail too, like a real socket.
        assert_eq!(
            t.write(b"third").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        let mut b = [0u8; 1];
        assert_eq!(
            t.read(&mut b).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert!(t.peer_gone());
        assert_eq!(chaos.injection_log(), vec![(OpClass::Write, Fault::Reset)]);
    }

    #[test]
    fn bit_flip_on_write_is_caught_by_the_frame_checksum() {
        // Flip a bit in the 3rd write — the payload chunk of the frame
        // (magic, length, payload, checksum are separate write calls).
        let chaos = NetChaos::quiet().with_fault(OpClass::Write, 3, Fault::BitFlip);
        let mut t = chaos.wrap(Box::new(Loopback::default()));
        write_frame(&mut t, b"some payload bytes").unwrap();
        let err = read_frame(&mut t).unwrap_err();
        assert!(crate::frame::is_corruption(&err), "{err}");
        assert_eq!(chaos.injected(), 1);
    }

    #[test]
    fn short_write_loses_nothing_under_write_all() {
        let chaos = NetChaos::quiet().with_fault(OpClass::Write, 3, Fault::ShortWrite);
        let mut t = chaos.wrap(Box::new(Loopback::default()));
        write_frame(&mut t, b"0123456789").unwrap();
        assert_eq!(read_frame(&mut t).unwrap().unwrap(), b"0123456789");
        assert_eq!(chaos.injected(), 1);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The determinism pin: 100 alternating writes and reads over the
    /// in-memory loopback at the chaos matrix's rate, re-wrapping after
    /// a reset, for every seed in CI's `QF_NET_CHAOS_SEEDS`. Each row is
    /// (seed, log length, FNV-1a of the injection log, FNV-1a of every
    /// op's outcome), captured before the two injectors were folded
    /// into one.
    #[test]
    fn fault_stream_is_pinned_for_every_ci_seed() {
        const PINNED: [(u64, usize, u64, u64); 12] = [
            (1, 11, 0x8d2ab7f5af08d79e, 0xe62062329f5a4069),
            (2, 11, 0xbbc572e122825e33, 0xe01f531c92a49456),
            (3, 11, 0x30750d6678bdd77f, 0x631fd2dbf80c7a57),
            (4, 14, 0x3320efbe4bb89a58, 0x55e080f7fa667ca8),
            (5, 15, 0x73cf82f5728d15e1, 0xa7188fc4f88b9054),
            (11, 13, 0x45ee96fdbb33c43c, 0x9ea5d71befb3260c),
            (23, 5, 0xabbb724636303432, 0x444440175fdf950f),
            (37, 11, 0x16dd99c5e7ac2f58, 0x715c5f40f2b2a062),
            (41, 12, 0x9236212439c955ff, 0xf1765a634a38f1ba),
            (59, 8, 0xd040daa27f361cc, 0xf885873311eadf5a),
            (101, 9, 0x59963b597116968c, 0x796f39cb3bf10687),
            (2026, 11, 0xa933a563fff34ee5, 0x6b32d6d384e3d928),
        ];
        let (mut got, mut seen) = (Vec::new(), Vec::new());
        for (seed, ..) in PINNED {
            let chaos = NetChaos::seeded(seed, 8);
            let mut t = chaos.wrap(Box::new(Loopback::default()));
            let mut out = String::new();
            for i in 0..100u8 {
                let r = if i % 2 == 0 {
                    t.write(&[i; 12]).map(|n| n.to_string())
                } else {
                    let mut buf = [0u8; 8];
                    t.read(&mut buf).map(|n| format!("{:?}", &buf[..n]))
                };
                if matches!(&r, Err(e) if e.kind() == io::ErrorKind::ConnectionReset) {
                    t = chaos.wrap(Box::new(Loopback::default()));
                }
                out += &format!("{:?};", r.map_err(|e| e.kind()));
            }
            let log = chaos.injection_log();
            got.push((
                seed,
                log.len(),
                fnv1a(format!("{log:?}").as_bytes()),
                fnv1a(out.as_bytes()),
            ));
            seen.extend(log);
        }
        assert_eq!(got, PINNED);
        // The script reaches every fault kind of both menus.
        let menus = [
            (OpClass::Read, Fault::Stall),
            (OpClass::Read, Fault::Reset),
            (OpClass::Read, Fault::BitFlip),
            (OpClass::Write, Fault::Stall),
            (OpClass::Write, Fault::ShortWrite),
            (OpClass::Write, Fault::Reset),
            (OpClass::Write, Fault::BitFlip),
        ];
        assert!(menus.iter().all(|m| seen.contains(m)), "{seen:?}");
    }

    #[test]
    fn seeded_stream_is_deterministic_and_shared_across_wraps() {
        let run = |seed: u64| {
            let chaos = NetChaos::seeded(seed, 3);
            let mut outcomes = Vec::new();
            // Two "connections" drawing from one stream, like a
            // retrying client reconnecting after a reset.
            for _conn in 0..2 {
                let mut t = chaos.wrap(Box::new(Loopback::default()));
                for i in 0..20 {
                    outcomes.push(t.write(format!("{i}").as_bytes()).is_ok());
                }
            }
            (outcomes, chaos.injection_log())
        };
        let (a1, log1) = run(42);
        let (a2, log2) = run(42);
        assert_eq!(a1, a2);
        assert_eq!(log1, log2);
        assert!(!log1.is_empty(), "fault_every=3 over 40 writes must fire");
        let (b, _) = run(43);
        assert_ne!(a1, b, "different seeds should differ (w.h.p.)");
    }
}
