//! Property tests for the ADAN1 wire layer: frame round-trips under
//! arbitrary chunking, single-bit corruption detection, message codec
//! identity over every request/response variant, and no-panic on
//! adversarial byte streams.

use std::time::Duration;

use ada_dataset::ConditionGroup;
use ada_kdb::{Document, Value};
use ada_net::proto::{CohortSpec, Preset, Request, Response, WireJobSpec};
use ada_net::{frame_bytes, Decoded, FrameDecoder, FrameError};
use ada_obs::{Page, TraceContext};
use ada_service::Priority;
use proptest::prelude::*;

/// Drains every complete frame the decoder currently holds.
fn drain(dec: &mut FrameDecoder) -> Result<Vec<Vec<u8>>, FrameError> {
    let mut out = Vec::new();
    loop {
        match dec.next_frame()? {
            Decoded::Frame(p) => out.push(p),
            Decoded::NeedMore => return Ok(out),
        }
    }
}

/// Cohorts the server can generate: at least one exam type per
/// condition group (smaller catalogs are refused at decode).
fn cohort_strategy() -> impl Strategy<Value = CohortSpec> {
    (
        10usize..200,
        ConditionGroup::ALL.len()..30,
        50usize..2000,
        any::<u64>(),
    )
        .prop_map(|(patients, exam_types, records, seed)| CohortSpec {
            patients,
            exam_types,
            records,
            seed,
        })
}

fn trace_strategy() -> impl Strategy<Value = TraceContext> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
        |(trace_hi, trace_lo, span_id, sampled)| TraceContext {
            trace_hi,
            trace_lo,
            span_id,
            sampled,
        },
    )
}

fn spec_strategy() -> impl Strategy<Value = WireJobSpec> {
    (
        (
            "[a-z0-9-]{1,16}",
            prop_oneof![Just(Preset::Quick), Just(Preset::Paper)],
            any::<u64>(),
            cohort_strategy(),
        ),
        (
            prop_oneof![
                Just(Priority::Low),
                Just(Priority::Normal),
                Just(Priority::High)
            ],
            prop_oneof![Just(None::<u64>), (0u64..100_000).prop_map(Some)],
            0u32..5,
            0u32..3,
            prop_oneof![Just(None), trace_strategy().prop_map(Some)],
        ),
    )
        .prop_map(
            |(
                (session, preset, seed, cohort),
                (priority, timeout_ms, max_retries, inject, trace),
            )| {
                WireJobSpec {
                    session,
                    preset,
                    seed,
                    cohort,
                    priority,
                    timeout: timeout_ms.map(Duration::from_millis),
                    max_retries,
                    inject_failures: inject,
                    trace,
                }
            },
        )
}

/// Pages as they ride the wire: both fields are I64 there.
fn page_strategy() -> impl Strategy<Value = Page> {
    (0u64..=i64::MAX as u64, 0usize..=i64::MAX as usize)
        .prop_map(|(after, limit)| Page { after, limit })
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        spec_strategy().prop_map(Request::Submit),
        any::<u64>().prop_map(|session| Request::Status { session }),
        any::<u64>().prop_map(|session| Request::Cancel { session }),
        any::<u64>().prop_map(|session| Request::Results { session }),
        Just(Request::PastSessions),
        prop_oneof![Just(None), "[a-z0-9-]{1,16}".prop_map(Some)]
            .prop_map(|session| Request::TraceQuery { session }),
        page_strategy().prop_map(Request::PastSessionsPage),
        (
            prop_oneof![Just(None), "[a-z0-9-]{1,16}".prop_map(Some)],
            page_strategy()
        )
            .prop_map(|(session, page)| Request::TracePage { session, page }),
        Just(Request::Health),
        Just(Request::MetricsSnapshot),
    ]
}

fn document_strategy() -> impl Strategy<Value = Document> {
    prop::collection::btree_map(
        "[a-z_]{1,8}",
        prop_oneof![
            any::<i64>().prop_map(Value::I64),
            any::<bool>().prop_map(Value::Bool),
            "[ -~]{0,12}".prop_map(Value::Str),
        ],
        0..5,
    )
    .prop_map(|m| {
        let mut d = Document::new();
        for (k, v) in m {
            d.set(k, v);
        }
        d
    })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u64>().prop_map(|session| Response::Submitted { session }),
        (any::<u64>(), "[a-z_]{1,10}", "[ -~]{0,24}").prop_map(|(session, state, reason)| {
            Response::State {
                session,
                state,
                reason,
            }
        }),
        any::<u64>().prop_map(|session| Response::Cancelled { session }),
        (any::<u64>(), "[a-z_]{1,10}", document_strategy()).prop_map(
            |(session, state, summary)| Response::ResultSummary {
                session,
                state,
                summary,
            }
        ),
        prop::collection::vec(document_strategy(), 0..4)
            .prop_map(|sessions| Response::PastSessions { sessions }),
        prop::collection::vec(document_strategy(), 0..4)
            .prop_map(|traces| Response::Traces { traces }),
        document_strategy().prop_map(|doc| Response::Health { doc }),
        (document_strategy(), "[ -~]{0,40}")
            .prop_map(|(doc, prometheus)| Response::Metrics { doc, prometheus }),
        // Decode clamps retry_after_ms fail-closed to MAX_RETRY_AFTER_MS,
        // so only in-range hints round-trip identically.
        (0u64..=ada_net::proto::MAX_RETRY_AFTER_MS as u64).prop_map(|ms| Response::Busy {
            retry_after: Duration::from_millis(ms)
        }),
        "[ -~]{0,24}".prop_map(|detail| Response::Degraded { detail }),
        ("[a-z_]{1,10}", "[ -~]{0,24}")
            .prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Any frame sequence survives any chunking of the byte stream.
    #[test]
    fn frames_round_trip_under_arbitrary_chunking(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..6),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for (seq, p) in payloads.iter().enumerate() {
            stream.extend_from_slice(&frame_bytes(p, seq as u64));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            got.extend(drain(&mut dec).unwrap());
        }
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(dec.buffered(), 0);
    }

    // Flipping any single bit in a framed stream never yields an
    // altered payload: frames before the flip decode intact, the
    // flipped frame is rejected loudly or left torn (the lone benign
    // exception is a case-toggling flip inside the hex checksum field,
    // which leaves the payload byte-identical anyway).
    #[test]
    fn single_bit_corruption_never_yields_an_altered_frame(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..5),
        flip_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut stream = Vec::new();
        let mut frame_starts = Vec::new();
        for (seq, p) in payloads.iter().enumerate() {
            frame_starts.push(stream.len());
            stream.extend_from_slice(&frame_bytes(p, seq as u64));
        }
        let pos = (flip_seed as usize) % stream.len();
        stream[pos] ^= 1 << bit;
        // Which frame did the flip land in?
        let corrupted = frame_starts
            .iter()
            .rposition(|&s| s <= pos)
            .expect("flip lands in some frame");

        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let mut got = Vec::new();
        while let Ok(Decoded::Frame(p)) = dec.next_frame() {
            got.push(p);
        }
        // Frames before the flip always decode; nothing decodes altered.
        prop_assert!(got.len() >= corrupted, "lost pristine frames before the flip");
        prop_assert!(got.len() <= payloads.len());
        for (i, p) in got.iter().enumerate() {
            prop_assert_eq!(
                p,
                &payloads[i],
                "frame {} silently altered by flip at byte {}",
                i,
                pos
            );
        }
    }

    // The decoder never panics on adversarial input, and stays able to
    // decode a pristine frame that precedes the garbage.
    #[test]
    fn adversarial_streams_never_panic(
        garbage in prop::collection::vec(any::<u8>(), 0..300),
        chunk in 1usize..32,
    ) {
        let mut dec = FrameDecoder::new();
        for piece in garbage.chunks(chunk) {
            dec.push(piece);
            // Errors are fine (and sticky); panics are not.
            while let Ok(Decoded::Frame(_)) = dec.next_frame() {}
        }
        // Same bytes appended after a real frame: the real frame decodes.
        let mut dec = FrameDecoder::new();
        dec.push(&frame_bytes(b"real", 0));
        dec.push(&garbage);
        prop_assert_eq!(dec.next_frame().unwrap(), Decoded::Frame(b"real".to_vec()));
    }

    // Request messages survive encode → frame → deframe → decode.
    // (Ids ride the wire as I64, so the id domain is 1..=i64::MAX —
    // counters starting at 1 never leave it.)
    #[test]
    fn requests_round_trip_through_frames(req in request_strategy(), id in 1u64..i64::MAX as u64) {
        let framed = frame_bytes(&req.encode(id), 0);
        let mut dec = FrameDecoder::new();
        dec.push(&framed);
        let payload = match dec.next_frame().unwrap() {
            Decoded::Frame(p) => p,
            Decoded::NeedMore => panic!("complete frame did not decode"),
        };
        let (got_id, got) = Request::decode(&payload).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, req);
    }

    // Response messages survive encode → frame → deframe → decode,
    // including deep into a connection's sequence space.
    #[test]
    fn responses_round_trip_through_frames(resp in response_strategy(), id in 1u64..i64::MAX as u64) {
        let mut dec = FrameDecoder::new();
        for seq in 0..7u64 {
            dec.push(&frame_bytes(b"pad", seq));
            prop_assert!(matches!(dec.next_frame().unwrap(), Decoded::Frame(_)));
        }
        dec.push(&frame_bytes(&resp.encode(id), 7));
        let payload = match dec.next_frame().unwrap() {
            Decoded::Frame(p) => p,
            Decoded::NeedMore => panic!("complete frame did not decode"),
        };
        // The streamed envelope is the canonical encoding of a message
        // document: parsing it and encoding the parsed value (keys
        // sorted, counts recomputed) gives the same bytes back.
        let text = std::str::from_utf8(&payload).unwrap();
        prop_assert_eq!(Value::decode(text).unwrap().encode(), text);
        let (got_id, got) = Response::decode(&payload).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, resp);
    }

    // A cohort the generator would panic on (no patients, or fewer exam
    // types than condition groups) is a typed decode error.
    #[test]
    fn degenerate_cohorts_are_typed_decode_errors(
        spec in spec_strategy(),
        no_patients in any::<bool>(),
        exam_types in 0usize..ConditionGroup::ALL.len(),
    ) {
        let mut spec = spec;
        if no_patients {
            spec.cohort.patients = 0;
        } else {
            spec.cohort.exam_types = exam_types;
        }
        prop_assert!(Request::decode(&Request::Submit(spec).encode(1)).is_err());
    }

    // Arbitrary bytes fed to the message decoders are typed errors,
    // never panics.
    #[test]
    fn garbage_messages_are_typed_errors(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    // A trace context riding a submit survives any chunking of the
    // framed byte stream bit-for-bit: same 128-bit trace id, span id,
    // and sampling decision on the far side.
    #[test]
    fn trace_context_round_trips_under_arbitrary_chunking(
        spec in spec_strategy(),
        ctx in trace_strategy(),
        chunk in 1usize..48,
    ) {
        let sent = spec.with_trace(ctx);
        let framed = frame_bytes(&Request::Submit(sent.clone()).encode(1), 0);
        let mut dec = FrameDecoder::new();
        let mut payloads = Vec::new();
        for piece in framed.chunks(chunk) {
            dec.push(piece);
            payloads.extend(drain(&mut dec).unwrap());
        }
        prop_assert_eq!(payloads.len(), 1);
        let (_, got) = Request::decode(&payloads[0]).unwrap();
        match got {
            Request::Submit(got_spec) => {
                prop_assert_eq!(got_spec.trace, Some(ctx));
                prop_assert_eq!(got_spec, sent);
            }
            other => prop_assert!(false, "expected Submit, got {}", other.kind()),
        }
    }

    // Flipping any single bit in a traced submit's frame never yields
    // an *altered* trace context on the far side: the frame either
    // fails checksum/framing (or decodes byte-identically, the benign
    // checksum-hex case), so any context that does decode is exactly
    // the one that was sent. A flipped bit can reroute an analysis
    // request's identity only by being caught.
    #[test]
    fn single_bit_corruption_never_alters_a_trace_context(
        spec in spec_strategy(),
        ctx in trace_strategy(),
        flip_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let sent = spec.with_trace(ctx);
        let mut framed = frame_bytes(&Request::Submit(sent).encode(1), 0);
        let pos = (flip_seed as usize) % framed.len();
        framed[pos] ^= 1 << bit;
        let mut dec = FrameDecoder::new();
        dec.push(&framed);
        if let Ok(Decoded::Frame(payload)) = dec.next_frame() {
            // Survived the checksum: the payload must be byte-identical,
            // so a successfully decoded context is the one sent.
            if let Ok((_, Request::Submit(got_spec))) = Request::decode(&payload) {
                prop_assert_eq!(
                    got_spec.trace,
                    Some(ctx),
                    "bit flip at byte {} altered a trace context that still decoded",
                    pos
                );
            }
        }
    }
}
