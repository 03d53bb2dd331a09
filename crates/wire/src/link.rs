//! Per-peer send state: sequencing, the resend ring, and fault injection.
//!
//! A [`LinkSender`] outlives any one socket. The sequence counter and the
//! ring of recently-encoded data frames persist across disconnects, which
//! is what makes session resume work: after a reconnect the peer's
//! `Hello(session, last_recv_seq)` tells us the highest data frame it saw,
//! and [`LinkSender::resend_since`] replays everything newer from the
//! ring. Control frames (heartbeat, hello, bye) are never sequenced, never
//! retained, and never faulted — they are the reliability plane itself,
//! exactly as the in-proc runtime disarms the fault plane around its
//! bootstrap and shutdown control traffic.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;

use crate::codec::encode_value;
use crate::fault::{WireFaults, WireVerdict};
use crate::frame::{Frame, FrameBuf, FrameKind, MAX_PAYLOAD};

/// Data frames retained for session-resume redelivery. A peer that falls
/// further behind than this cannot be resumed and will surface message
/// loss to the application's retry layer instead.
pub const RING_FRAMES: usize = 1024;

/// Outbound half of one peer link.
pub struct LinkSender {
    /// Current socket; `None` while disconnected.
    stream: Option<UnixStream>,
    /// Our global rank (stamped as frame `src`).
    src: u32,
    /// Peer's global rank (fault-plane channel key).
    dst: u32,
    /// Next data sequence number to assign (first frame gets 1).
    next_seq: u64,
    /// Recently sent data frames, sealed clean (pre-fault), seq-ordered.
    /// Each is the buffer the payload was encoded into; writes and
    /// resends go out from it.
    ring: VecDeque<(u64, Vec<u8>)>,
    /// Monotone send-attempt counter keying fault draws; retransmissions
    /// advance it so a retried frame gets a fresh fate.
    attempts: u64,
    /// Frame-layer fault policy for this link.
    faults: WireFaults,
    /// Whether faults currently apply (mirrors `Process::set_faults_armed`).
    armed: bool,
}

impl LinkSender {
    /// A disconnected sender for the `src → dst` link.
    pub fn new(src: u32, dst: u32, faults: WireFaults) -> Self {
        LinkSender {
            stream: None,
            src,
            dst,
            next_seq: 1,
            ring: VecDeque::new(),
            attempts: 0,
            faults,
            armed: true,
        }
    }

    /// Attaches a fresh socket (connect or accept). Send state survives.
    pub fn attach(&mut self, stream: UnixStream) {
        self.stream = Some(stream);
    }

    /// Detaches the socket after an I/O failure; the ring keeps the
    /// unacknowledged tail for the next resume.
    pub fn detach(&mut self) {
        self.stream = None;
    }

    /// Whether a socket is currently attached.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Shuts down the attached socket (both directions), unblocking the
    /// peer's reader, and detaches.
    pub fn shutdown(&mut self) {
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Arms or disarms fault injection on this link.
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Highest sequence number assigned so far.
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Sends one application message: assigns the next sequence number,
    /// seals `frame` in place, retains it in the ring, then writes it
    /// through the fault plane. Returns the assigned sequence number. A
    /// payload over [`MAX_PAYLOAD`] is refused with `InvalidInput` before
    /// it is sequenced.
    pub fn send_data(
        &mut self,
        context: u32,
        tag: i32,
        codec: u32,
        frame: FrameBuf,
    ) -> io::Result<u64> {
        if frame.payload().len() > MAX_PAYLOAD {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "payload over MAX_PAYLOAD"));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = frame.seal(FrameKind::Data, self.src, context, tag, seq, codec);
        if self.ring.len() == RING_FRAMES {
            self.ring.pop_front();
        }
        self.ring.push_back((seq, bytes));
        self.write_retained(self.ring.len() - 1)?;
        Ok(seq)
    }

    /// Replays every retained data frame with `seq > last_recv` (session
    /// resume). Replays go through the fault plane with fresh draws.
    pub fn resend_since(&mut self, last_recv: u64) -> io::Result<usize> {
        let first = self.ring.partition_point(|(seq, _)| *seq <= last_recv);
        for i in first..self.ring.len() {
            self.write_retained(i)?;
        }
        Ok(self.ring.len() - first)
    }

    /// Sends a control frame: unsequenced, unretained, never faulted.
    pub fn send_control(&mut self, kind: FrameKind) -> io::Result<()> {
        let frame = Frame::control(kind, self.src);
        self.write_clean(frame.encode())
    }

    /// Sends the handshake/resume announcement carrying our session id and
    /// the highest data seq we have received from the peer.
    pub fn send_hello(&mut self, session: u64, last_recv_seq: u64) -> io::Result<()> {
        let mut frame = Frame::control(FrameKind::Hello, self.src);
        frame.payload = encode_value(&(session, last_recv_seq));
        self.write_clean(frame.encode())
    }

    /// Sends a progress fence carrying our fence counter and the highest
    /// data seq we have delivered from the peer. Like all control frames:
    /// unsequenced, unretained, never faulted.
    pub fn send_fence(&mut self, fence_seq: u64, watermark: u64) -> io::Result<()> {
        let mut frame = Frame::control(FrameKind::ProgressFence, self.src);
        frame.payload = encode_value(&(fence_seq, watermark));
        self.write_clean(frame.encode())
    }

    /// Drops every retained data frame while keeping the sequence counter
    /// monotone. Used when the rank behind this link is replaced by a fresh
    /// process (spare-process join): the new peer starts a new session with
    /// `last_recv_seq == 0`, and replaying the old occupant's frames at it
    /// would deliver another rank's traffic.
    pub fn clear_ring(&mut self) {
        self.ring.clear();
    }

    fn write_clean(&mut self, bytes: Vec<u8>) -> io::Result<()> {
        write_to(&mut self.stream, &bytes)
    }

    /// Writes ring entry `i` through the fault plane. Only a bit flip
    /// copies the frame, so the ring keeps the clean bytes for resends.
    fn write_retained(&mut self, i: usize) -> io::Result<()> {
        let len = self.ring[i].1.len();
        if self.armed {
            let attempt = self.attempts;
            self.attempts += 1;
            match self.faults.judge(self.src, self.dst, attempt, len) {
                WireVerdict::Deliver => {}
                WireVerdict::Drop => return Ok(()), // "lost in flight"
                WireVerdict::FlipBit(bit) => {
                    let mut damaged = self.ring[i].1.clone();
                    damaged[bit / 8] ^= 1 << (bit % 8);
                    return write_to(&mut self.stream, &damaged);
                }
                WireVerdict::Delay(d) => std::thread::sleep(d),
            }
        }
        write_to(&mut self.stream, &self.ring[i].1)
    }
}

fn write_to(stream: &mut Option<UnixStream>, bytes: &[u8]) -> io::Result<()> {
    stream
        .as_mut()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "link detached"))?
        .write_all(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameError, FrameReader};
    use std::io::Read;

    fn pair() -> (UnixStream, UnixStream) {
        UnixStream::pair().expect("socketpair")
    }

    fn drain(rx: &mut UnixStream, reader: &mut FrameReader) -> Vec<Result<Frame, FrameError>> {
        rx.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 4096];
        let mut out = Vec::new();
        loop {
            match rx.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => reader.feed(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("read: {e}"),
            }
        }
        while let Some(r) = reader.next() {
            out.push(r);
        }
        out
    }

    #[test]
    fn data_frames_are_sequenced_from_one() {
        let (tx, mut rx) = pair();
        let mut s = LinkSender::new(0, 1, WireFaults::none());
        s.attach(tx);
        assert_eq!(s.send_data(5, 9, 1, FrameBuf::new()).unwrap(), 1);
        assert_eq!(s.send_data(5, 9, 1, FrameBuf::from_payload(&[0xab])).unwrap(), 2);
        let mut fr = FrameReader::new();
        let got = drain(&mut rx, &mut fr);
        let seqs: Vec<u64> = got.iter().map(|r| r.as_ref().unwrap().seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn resume_replays_exactly_the_unseen_tail() {
        let (tx, mut rx) = pair();
        let mut s = LinkSender::new(2, 3, WireFaults::none());
        s.attach(tx);
        for i in 0..5u8 {
            s.send_data(1, 1, 1, FrameBuf::from_payload(&[i])).unwrap();
        }
        let mut fr = FrameReader::new();
        drain(&mut rx, &mut fr); // receiver saw 1..=5, pretend it saw 3
        let replayed = s.resend_since(3).unwrap();
        assert_eq!(replayed, 2);
        let got = drain(&mut rx, &mut fr);
        let seqs: Vec<u64> = got.iter().map(|r| r.as_ref().unwrap().seq).collect();
        assert_eq!(seqs, vec![4, 5]);
    }

    #[test]
    fn send_state_survives_reattach() {
        let (tx1, rx1) = pair();
        let mut s = LinkSender::new(0, 1, WireFaults::none());
        s.attach(tx1);
        s.send_data(1, 1, 1, FrameBuf::from_payload(&[1])).unwrap();
        drop(rx1);
        s.detach();
        assert!(!s.is_connected());
        let (tx2, mut rx2) = pair();
        s.attach(tx2);
        assert_eq!(
            s.send_data(1, 1, 1, FrameBuf::from_payload(&[2])).unwrap(),
            2,
            "sequence continues"
        );
        assert_eq!(s.resend_since(0).unwrap(), 2, "ring retained both frames");
        let mut fr = FrameReader::new();
        let got = drain(&mut rx2, &mut fr);
        assert_eq!(got.len(), 3); // the live send of seq 2 plus the two replays
    }

    #[test]
    fn dropped_frames_vanish_but_stay_in_the_ring() {
        let (tx, mut rx) = pair();
        // drop everything
        let faults = WireFaults { seed: 1, drop: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(0, 1, faults);
        s.attach(tx);
        s.send_data(1, 1, 1, FrameBuf::from_payload(&[7])).unwrap();
        let mut fr = FrameReader::new();
        assert!(drain(&mut rx, &mut fr).is_empty(), "frame was 'lost in flight'");
        s.set_armed(false);
        assert_eq!(s.resend_since(0).unwrap(), 1, "the ring still holds it");
        let got = drain(&mut rx, &mut fr);
        assert_eq!(got.len(), 1);
        assert!(got[0].is_ok());
    }

    #[test]
    fn corrupted_frames_fail_crc_at_the_receiver() {
        let (tx, mut rx) = pair();
        let faults = WireFaults { seed: 5, corrupt: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(0, 1, faults);
        s.attach(tx);
        s.send_data(1, 1, 1, FrameBuf::from_payload(&[1, 2, 3, 4])).unwrap();
        let mut fr = FrameReader::new();
        let got = drain(&mut rx, &mut fr);
        assert!(
            got.iter().all(|r| matches!(r, Err(FrameError::Corrupt { .. }))),
            "a flipped bit must never decode as a clean frame: {got:?}"
        );
    }

    #[test]
    fn a_flipped_send_leaves_the_ring_clean() {
        let (tx, mut rx) = pair();
        let faults = WireFaults { seed: 5, corrupt: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(0, 1, faults);
        s.attach(tx);
        let payload: Vec<u8> = (0..200u8).collect();
        s.send_data(1, 1, 1, FrameBuf::from_payload(&payload)).unwrap();
        let mut fr = FrameReader::new();
        let got = drain(&mut rx, &mut fr);
        assert!(got.iter().all(|r| r.is_err()), "the live send was damaged: {got:?}");
        s.set_armed(false);
        assert_eq!(s.resend_since(0).unwrap(), 1);
        let got = drain(&mut rx, &mut fr);
        assert_eq!(got.len(), 1);
        let frame = got[0].as_ref().expect("the replay is the clean frame");
        assert_eq!((frame.seq, &frame.payload), (1, &payload));
    }

    #[test]
    fn oversize_payload_is_refused_before_it_is_sequenced() {
        let (tx, _rx) = pair();
        let mut s = LinkSender::new(0, 1, WireFaults::none());
        s.attach(tx);
        let huge = FrameBuf::from_payload(&vec![0u8; MAX_PAYLOAD + 1]);
        let err = s.send_data(1, 1, 1, huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(s.last_seq(), 0, "no sequence number was spent");
        assert_eq!(s.resend_since(0).unwrap(), 0, "nothing entered the ring");
    }

    #[test]
    fn control_frames_bypass_faults() {
        let (tx, mut rx) = pair();
        let faults = WireFaults { seed: 1, drop: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(4, 1, faults);
        s.attach(tx);
        s.send_control(FrameKind::Heartbeat).unwrap();
        s.send_hello(0xfeed, 12).unwrap();
        let mut fr = FrameReader::new();
        let got = drain(&mut rx, &mut fr);
        assert_eq!(got.len(), 2, "control plane is exempt from injected loss");
        assert_eq!(got[0].as_ref().unwrap().kind, FrameKind::Heartbeat);
        let hello = got[1].as_ref().unwrap();
        assert_eq!(hello.kind, FrameKind::Hello);
        assert_eq!(crate::codec::decode_value::<(u64, u64)>(&hello.payload).unwrap(), (0xfeed, 12));
    }

    #[test]
    fn fences_bypass_faults_and_carry_watermarks() {
        let (tx, mut rx) = pair();
        let faults = WireFaults { seed: 1, drop: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(2, 1, faults);
        s.attach(tx);
        s.send_fence(7, 41).unwrap();
        let mut fr = FrameReader::new();
        let got = drain(&mut rx, &mut fr);
        assert_eq!(got.len(), 1, "fences are control plane: exempt from injected loss");
        let fence = got[0].as_ref().unwrap();
        assert_eq!(fence.kind, FrameKind::ProgressFence);
        assert_eq!(fence.src, 2);
        assert_eq!(crate::codec::decode_value::<(u64, u64)>(&fence.payload).unwrap(), (7, 41));
    }

    #[test]
    fn clear_ring_forgets_frames_but_keeps_sequence_monotone() {
        let (tx, _rx) = pair();
        let faults = WireFaults { seed: 1, drop: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(0, 1, faults);
        s.attach(tx);
        for i in 0..3u8 {
            s.send_data(1, 1, 1, FrameBuf::from_payload(&[i])).unwrap();
        }
        s.clear_ring();
        assert_eq!(s.resend_since(0).unwrap(), 0, "nothing left to replay");
        assert_eq!(
            s.send_data(1, 1, 1, FrameBuf::from_payload(&[9])).unwrap(),
            4,
            "seq continues past cleared frames"
        );
    }

    #[test]
    fn ring_is_bounded() {
        let (tx, _rx) = pair();
        // Drop every write so the unread socketpair never backpressures
        // the test; the ring fills regardless of delivery.
        let faults = WireFaults { seed: 1, drop: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(0, 1, faults);
        s.attach(tx);
        for i in 0..(RING_FRAMES as u64 + 10) {
            s.send_data(1, 1, 1, FrameBuf::from_payload(&[(i & 0xff) as u8])).unwrap();
        }
        assert_eq!(s.resend_since(0).unwrap(), RING_FRAMES, "old frames were evicted");
    }
}
