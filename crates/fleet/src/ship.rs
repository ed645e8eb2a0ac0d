//! TCP endpoints for the replication link.
//!
//! The link reuses the ADAN1 transport framing (magic handshake, then
//! `F<len>:<seq>:<crc32>:` frames), with [`ReplMsg`] payloads. The
//! follower connects and speaks first:
//!
//! ```text
//! follower → primary   Hello { have_ops, epoch }
//! primary  → follower  CatchUp { from, suffix }     (same epoch: the
//!                                                    frames past have_ops)
//!                      — or —
//!                      Snapshot { epoch, image }    (authoritative rebuild)
//! primary  → follower  Frame* / Durable* / Reset*   (as the tap emits)
//! follower → primary   Ack { seq }*                 (at fsync watermarks)
//! ```
//!
//! The primary answers a `Hello` whose `epoch` matches the journal's
//! current lineage (and whose `have_ops` prefix verifies against the
//! image) with a `CatchUp` carrying only the missed frame suffix —
//! reconnects after a link blip cost O(missed ops), not O(journal).
//! Anything else — first contact, a post-compaction epoch mismatch, a
//! prefix that does not verify — gets a full `Snapshot`, which the
//! follower installs **wholesale** (its previous state is discarded, so
//! a compacted image with a restarted sequence space is safe). Neither
//! may exceed the ADAN1 frame cap, so both are cut at journal frame
//! boundaries: the `Snapshot` carries the longest prefix that fits, and
//! the rest follows as `CatchUp`s, each starting where the last ended.
//!
//! Duplicate frames across the snapshot/tap boundary are verified and
//! skipped by the follower's [`ReplStream`](crate::stream::ReplStream);
//! a `Reset` (compaction or source-queue overflow) makes the follower
//! re-`Hello` and discard in-flight `Frame`/`Durable` traffic until the
//! answering `Snapshot`/`CatchUp` arrives. Either endpoint surviving
//! the other's death is the point: the primary keeps serving with the
//! tap queueing (bounded), the follower keeps serving reads at its last
//! applied watermark and reconnects with backoff. One follower is
//! served at a time; surplus connections are told so with a typed
//! [`ReplMsg::Reject`] instead of rotting in the accept backlog.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ada_kdb::journal::{decode_record, V2_MAGIC};
use ada_kdb::SharedKdb;
use ada_net::frame::{frame_bytes, Decoded, FrameDecoder, MAGIC, MAX_FRAME_LEN};
use ada_obs::ReplMetrics;
use parking_lot::Mutex;

use crate::engine::ReplicaEngine;
use crate::source::ReplSource;
use crate::wire::ReplMsg;

/// How long shipper/applier loops block before re-checking shutdown.
const TICK: Duration = Duration::from_millis(25);

fn handshake_server(stream: &mut TcpStream) -> std::io::Result<()> {
    let mut got = [0u8; 6];
    stream.read_exact(&mut got)?;
    if got != MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bad replication magic",
        ));
    }
    stream.write_all(MAGIC)
}

fn handshake_client(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(MAGIC)?;
    let mut got = [0u8; 6];
    stream.read_exact(&mut got)?;
    if got != MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bad replication magic",
        ));
    }
    Ok(())
}

/// The primary's replication endpoint: accepts one follower at a time
/// and ships the source's queue over it.
pub struct ReplListener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    source: Arc<ReplSource>,
}

impl ReplListener {
    /// Attaches `source` as `kdb`'s journal tap and starts listening on
    /// `addr` (use port 0 for ephemeral).
    ///
    /// # Errors
    /// Socket bind failures.
    pub fn start(
        kdb: SharedKdb,
        source: Arc<ReplSource>,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // Tap first, image later (per connection): frames appended
        // between the two are shipped twice and skipped as duplicates,
        // never lost.
        kdb.set_journal_tap(Some(source.clone()));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            let source = Arc::clone(&source);
            std::thread::Builder::new()
                .name("ada-repl-ship".to_owned())
                .spawn(move || accept_loop(&listener, &kdb, &source, &stop))
                .expect("spawn repl shipper")
        };
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
            source,
        })
    }

    /// The bound replication address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and shipping, then joins the shipper thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        self.source.close();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ReplListener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.source.close();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    kdb: &SharedKdb,
    source: &Arc<ReplSource>,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // A silent connection must not wedge the primary's
                // shipper thread at handshake.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(1000)));
                if handshake_server(&mut stream).is_err() {
                    continue;
                }
                // Connection errors just end this follower's session;
                // the next accept starts a fresh Hello/Snapshot cycle.
                let _ = serve_follower(&mut stream, listener, kdb, source, stop);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(TICK);
            }
            Err(_) => return,
        }
    }
}

/// Tells every connection waiting in the accept backlog that this
/// primary already ships to a follower. Without this, a second
/// follower's `Hello` would sit unanswered forever — silently never
/// replicating and reporting nothing.
fn reject_surplus(listener: &TcpListener) {
    while let Ok((mut stream, _)) = listener.accept() {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        if handshake_server(&mut stream).is_ok() {
            let msg = ReplMsg::Reject {
                reason: "primary already ships to a follower".into(),
            };
            let _ = stream.write_all(&frame_bytes(&msg.encode(), 0));
        }
    }
}

/// Walks `image`'s frames and returns the byte offset just past the
/// first `have_ops` of them — the start of the suffix a same-epoch
/// follower is missing. `None` when the prefix does not verify (torn,
/// corrupt, fewer frames than claimed): the caller falls back to a
/// full snapshot.
fn suffix_at(image: &[u8], have_ops: u64) -> Option<usize> {
    if !image.starts_with(V2_MAGIC) {
        return None;
    }
    let mut pos = V2_MAGIC.len();
    for seq in 0..have_ops {
        pos += decode_record(&image[pos..], seq).ok()?.1;
    }
    Some(pos)
}

/// Room in one ADAN1 frame for journal frames: the cap minus a
/// `Snapshot`/`CatchUp` header (a tag, a `u64` and a colon: 22 bytes)
/// and a snapshot's journal magic.
const CHUNK_BUDGET: usize = MAX_FRAME_LEN - 32;

/// The end of the longest run of whole journal frames at `image[start..]`
/// (the first one numbered `seq`) within [`CHUNK_BUDGET`], and how many
/// frames it holds. A frame over the budget is a run of its own (which
/// the follower's decoder refuses); bytes that do not decode as frames
/// go with the run that reaches them.
fn frame_run(image: &[u8], start: usize, seq: u64) -> (usize, u64) {
    let (mut end, mut ops) = (start, 0);
    while let Ok((_, len)) = decode_record(&image[end..], seq + ops) {
        if ops > 0 && end + len - start > CHUNK_BUDGET {
            return (end, ops);
        }
        (end, ops) = (end + len, ops + 1);
    }
    (image.len(), ops)
}

/// Ships to one connected follower until error, stop, or disconnect.
fn serve_follower(
    stream: &mut TcpStream,
    listener: &TcpListener,
    kdb: &SharedKdb,
    source: &Arc<ReplSource>,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(TICK))?;
    let mut decoder = FrameDecoder::new();
    let mut write_seq = 0u64;
    let mut buf = [0u8; 16 * 1024];
    let send = |stream: &mut TcpStream, write_seq: &mut u64, msg: &ReplMsg| {
        let frame = frame_bytes(&msg.encode(), *write_seq);
        *write_seq += 1;
        stream.write_all(&frame)
    };
    // Nothing ships before the Hello/Snapshot exchange: a live frame
    // arriving ahead of the image would read as a gap on the other end.
    let mut greeted = false;
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        // Surplus followers get a visible Reject, not backlog limbo.
        reject_surplus(listener);
        // 1. Forward whatever the tap queued. Before the first Hello
        //    the queue is discarded — every discarded frame is already
        //    in the journal, so the image taken below covers it; frames
        //    that are both imaged and queued after that arrive as
        //    verified duplicates and are skipped by the follower.
        for msg in source.drain() {
            if greeted {
                send(stream, &mut write_seq, &msg)?;
            }
        }
        // 2. Poll the socket for follower messages.
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(n) => decoder.push(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
        loop {
            match decoder.next_frame() {
                Ok(Decoded::Frame(payload)) => match ReplMsg::decode(&payload) {
                    Ok(ReplMsg::Ack { seq }) => source.observe_ack(seq),
                    Ok(ReplMsg::Hello { have_ops, epoch }) => {
                        // Initial hello or a re-bootstrap request after
                        // Reset. Order matters:
                        //  a. leave the overflowed state BEFORE imaging
                        //     — a frame appended after this point is
                        //     queued (and at worst also in the image: a
                        //     verified duplicate), never dropped;
                        //  b. take an epoch-stable image — a compaction
                        //     racing the read would pair an old image
                        //     with a new epoch and mis-validate a later
                        //     catch-up.
                        source.end_overflow();
                        let (lineage, image) = loop {
                            let before = source.lineage_epoch();
                            let image = kdb.journal_image().map_err(|e| {
                                std::io::Error::other(format!("journal image: {e}"))
                            })?;
                            if source.lineage_epoch() == before {
                                break (before, image);
                            }
                        };
                        // Same lineage and a verifying prefix: ship only
                        // the missed suffix. Anything else: the full
                        // image, installed wholesale by the follower.
                        let suffix = (epoch == lineage && have_ops > 0)
                            .then(|| suffix_at(&image, have_ops))
                            .flatten();
                        // Either way in messages under the frame cap:
                        // whole journal frames, the rest as catch-ups.
                        let (mut pos, mut from) = match suffix {
                            Some(pos) => (pos, have_ops),
                            None => {
                                source.metrics().snapshot_shipped(image.len());
                                let magic = V2_MAGIC.len().min(image.len());
                                let (end, ops) = frame_run(&image, magic, 0);
                                send(
                                    stream,
                                    &mut write_seq,
                                    &ReplMsg::Snapshot {
                                        epoch: lineage,
                                        image: image[..end].to_vec(),
                                    },
                                )?;
                                (end, ops)
                            }
                        };
                        // A suffix is answered even when it is empty.
                        let mut answered = suffix.is_none();
                        while pos < image.len() || !answered {
                            let (end, ops) = frame_run(&image, pos, from);
                            send(
                                stream,
                                &mut write_seq,
                                &ReplMsg::CatchUp {
                                    from,
                                    bytes: image[pos..end].to_vec(),
                                },
                            )?;
                            (pos, from, answered) = (end, from + ops, true);
                        }
                        // Then the current durable watermark so a
                        // quiescent primary's follower can still fsync
                        // and ack.
                        let durable = kdb.journal_durable_ops();
                        send(stream, &mut write_seq, &ReplMsg::Durable { seq: durable })?;
                        greeted = true;
                    }
                    Ok(_) | Err(_) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "unexpected follower message",
                        ));
                    }
                },
                Ok(Decoded::NeedMore) => break,
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ));
                }
            }
        }
    }
}

/// The follower's replication endpoint: connects to a primary, tails
/// its journal into a local [`ReplicaEngine`], acks fsync watermarks.
pub struct ReplFollower {
    engine: Arc<Mutex<ReplicaEngine>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    acked: Arc<AtomicU64>,
    halted: Arc<Mutex<Option<String>>>,
    rejected: Arc<Mutex<Option<String>>>,
}

impl ReplFollower {
    /// Starts tailing `primary` into `kdb` (expected empty).
    pub fn start(primary: SocketAddr, kdb: SharedKdb, metrics: Arc<ReplMetrics>) -> Self {
        let engine = Arc::new(Mutex::new(ReplicaEngine::new(kdb, metrics)));
        let stop = Arc::new(AtomicBool::new(false));
        let acked = Arc::new(AtomicU64::new(0));
        let halted: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let rejected: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let handle = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let acked = Arc::clone(&acked);
            let halted = Arc::clone(&halted);
            let rejected = Arc::clone(&rejected);
            std::thread::Builder::new()
                .name("ada-repl-tail".to_owned())
                .spawn(move || tail_loop(primary, &engine, &stop, &acked, &halted, &rejected))
                .expect("spawn repl tail")
        };
        Self {
            engine,
            stop,
            handle: Some(handle),
            acked,
            halted,
            rejected,
        }
    }

    /// The engine (for reads, watermarks, fingerprints, promotion).
    pub fn engine(&self) -> Arc<Mutex<ReplicaEngine>> {
        Arc::clone(&self.engine)
    }

    /// The last watermark acked to the primary.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    /// Why replication halted, if it did (gap/corruption/apply error).
    pub fn halted(&self) -> Option<String> {
        self.halted.lock().clone()
    }

    /// The primary's reason the last time it refused this follower
    /// (e.g. it already ships to another follower). Not fatal — the
    /// tail keeps retrying with backoff and attaches when a slot
    /// frees up.
    pub fn last_reject(&self) -> Option<String> {
        self.rejected.lock().clone()
    }

    /// Stops tailing and joins; the replica store stays as applied —
    /// ready for [`ada_service::AnalysisService::promote`].
    pub fn shutdown(mut self) -> Arc<Mutex<ReplicaEngine>> {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        Arc::clone(&self.engine)
    }
}

impl Drop for ReplFollower {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn tail_loop(
    primary: SocketAddr,
    engine: &Arc<Mutex<ReplicaEngine>>,
    stop: &Arc<AtomicBool>,
    acked: &Arc<AtomicU64>,
    halted: &Arc<Mutex<Option<String>>>,
    rejected: &Arc<Mutex<Option<String>>>,
) {
    let mut backoff = Duration::from_millis(10);
    while !stop.load(Ordering::Acquire) {
        match tail_once(primary, engine, stop, acked) {
            Ok(()) => return, // clean stop
            Err(TailEnd::Fatal(reason)) => {
                *halted.lock() = Some(reason);
                return;
            }
            Err(TailEnd::Rejected(reason)) => {
                // The primary refused us (likely serving another
                // follower). Visible but not fatal: keep retrying — a
                // slot may free up (old follower promoted or died).
                *rejected.lock() = Some(reason);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(500));
            }
            Err(TailEnd::Disconnected) => {
                // Primary gone or link flaked: serve reads at the
                // current watermark, retry with capped backoff.
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(500));
            }
        }
    }
}

enum TailEnd {
    /// Connection-level failure — reconnect and re-Hello.
    Disconnected,
    /// The primary refused to serve this follower — back off, retry,
    /// surface the reason.
    Rejected(String),
    /// Replication-level failure (gap/corruption/apply) — halt; the
    /// operator (or torture harness) decides what is next.
    Fatal(String),
}

fn tail_once(
    primary: SocketAddr,
    engine: &Arc<Mutex<ReplicaEngine>>,
    stop: &Arc<AtomicBool>,
    acked: &Arc<AtomicU64>,
) -> Result<(), TailEnd> {
    let mut stream = TcpStream::connect_timeout(&primary, Duration::from_millis(250))
        .map_err(|_| TailEnd::Disconnected)?;
    handshake_client(&mut stream).map_err(|_| TailEnd::Disconnected)?;
    stream
        .set_read_timeout(Some(TICK))
        .map_err(|_| TailEnd::Disconnected)?;
    let mut decoder = FrameDecoder::new();
    let mut write_seq = 0u64;
    let send = |stream: &mut TcpStream, write_seq: &mut u64, msg: &ReplMsg| {
        let frame = frame_bytes(&msg.encode(), *write_seq);
        *write_seq += 1;
        stream.write_all(&frame).map_err(|_| TailEnd::Disconnected)
    };
    let (have, epoch) = {
        let mut eng = engine.lock();
        // The previous connection may have died mid-frame; its torn
        // tail must not prefix the bytes this connection ships.
        eng.resync();
        (eng.applied_ops(), eng.source_epoch())
    };
    send(
        &mut stream,
        &mut write_seq,
        &ReplMsg::Hello {
            have_ops: have,
            epoch,
        },
    )?;
    // Between a Hello and its Snapshot/CatchUp answer, any Frame or
    // Durable on the wire predates the primary processing the Hello —
    // after a Reset it belongs to a stream we can no longer extend.
    // Discard instead of feeding a guaranteed gap.
    let mut awaiting = true;
    let mut buf = [0u8; 16 * 1024];
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err(TailEnd::Disconnected),
            Ok(n) => decoder.push(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return Err(TailEnd::Disconnected),
        }
        loop {
            match decoder.next_frame() {
                Ok(Decoded::Frame(payload)) => {
                    let msg =
                        ReplMsg::decode(&payload).map_err(|e| TailEnd::Fatal(e.to_string()))?;
                    match &msg {
                        ReplMsg::Reject { reason } => {
                            return Err(TailEnd::Rejected(reason.clone()));
                        }
                        ReplMsg::Reset { .. } => {
                            // Sequence space restarted (compaction) or
                            // the source queue overflowed: ask for a
                            // fresh bootstrap on this same connection
                            // and ignore stream traffic until it comes.
                            let (have, epoch) = {
                                let mut eng = engine.lock();
                                eng.resync();
                                (eng.applied_ops(), eng.source_epoch())
                            };
                            send(
                                &mut stream,
                                &mut write_seq,
                                &ReplMsg::Hello {
                                    have_ops: have,
                                    epoch,
                                },
                            )?;
                            awaiting = true;
                            continue;
                        }
                        ReplMsg::Snapshot { .. } | ReplMsg::CatchUp { .. } => {
                            engine
                                .lock()
                                .consume(&msg)
                                .map_err(|e| TailEnd::Fatal(e.to_string()))?;
                            awaiting = false;
                        }
                        ReplMsg::Frame { .. } | ReplMsg::Durable { .. } if awaiting => {
                            // Pre-bootstrap leftovers; the answer to our
                            // Hello supersedes them.
                        }
                        ReplMsg::Durable { .. } => {
                            let mut eng = engine.lock();
                            eng.consume(&msg)
                                .map_err(|e| TailEnd::Fatal(e.to_string()))?;
                            // The primary fsynced: match it locally and
                            // ack the watermark.
                            let watermark =
                                eng.sync().map_err(|e| TailEnd::Fatal(e.to_string()))?;
                            drop(eng);
                            acked.store(watermark, Ordering::Release);
                            send(
                                &mut stream,
                                &mut write_seq,
                                &ReplMsg::Ack { seq: watermark },
                            )?;
                        }
                        _ => {
                            engine
                                .lock()
                                .consume(&msg)
                                .map_err(|e| TailEnd::Fatal(e.to_string()))?;
                        }
                    }
                }
                Ok(Decoded::NeedMore) => break,
                Err(e) => return Err(TailEnd::Fatal(e.to_string())),
            }
        }
    }
}
