//! Seeded fuzz of the wire decoder: byte-level mutations of valid
//! frames must always come back as structured errors or valid parses —
//! never a panic, never an allocation past the frame cap.
//!
//! This is the `malformed_wire_frame` chaos fault at test scale: the
//! mutations are drawn from a seeded [`SimRng`], so a failure
//! reproduces exactly.

use maeri_dnn::{ConvLayer, FcLayer};
use maeri_serve::wire::{
    read_frame, write_frame, FabricSpec, JobSpec, Request, MAX_FRAME_BYTES, MAX_WIRE_LAYER_DIM,
    MAX_WIRE_LAYER_MACS, MAX_WIRE_MULTIPLIERS, MAX_WIRE_SEARCH_WORK, MAX_WIRE_TRACE_WORK,
};
use maeri_sim::SimRng;

fn base_frames() -> Vec<Vec<u8>> {
    let requests = vec![
        Request::Submit {
            tenant: "t0".to_owned(),
            spec: JobSpec::Conv {
                layer: ConvLayer::new("fz_conv", 3, 16, 16, 8, 3, 3, 1, 1),
                fabric: FabricSpec::default(),
            },
            deadline_ms: Some(500),
        },
        Request::Submit {
            tenant: "t1".to_owned(),
            spec: JobSpec::Fc {
                layer: FcLayer::new("fz_fc", 128, 64),
                fabric: FabricSpec::default(),
            },
            deadline_ms: None,
        },
        Request::Poll { id: 42 },
        Request::Fetch { id: 7 },
        Request::Stats,
    ];
    requests
        .into_iter()
        .map(|request| {
            let mut frame = Vec::new();
            write_frame(&mut frame, &request.to_json()).expect("valid frame encodes");
            frame
        })
        .collect()
}

/// Runs one mutated frame through the full decode path the server
/// uses: `read_frame`, then `Request::from_json`. Returns whether the
/// bytes were (possibly still) a valid request.
fn decode(bytes: &[u8]) -> bool {
    match read_frame(&mut &bytes[..]) {
        Ok(Some(doc)) => Request::from_json(&doc).is_ok(),
        Ok(None) | Err(_) => false,
    }
}

#[test]
fn bit_flips_never_panic_the_decoder() {
    let frames = base_frames();
    let mut rng = SimRng::seed(0xF0_55);
    let mut rejected = 0u64;
    let mut accepted = 0u64;
    for round in 0..2000 {
        let mut frame = frames[round % frames.len()].clone();
        let flips = 1 + rng.next_below(4);
        for _ in 0..flips {
            let pos = rng.next_below(frame.len());
            frame[pos] ^= 1u8 << rng.next_below(8);
        }
        if decode(&frame) {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    // Most mutations break something; a few land in string content and
    // survive. Both outcomes are fine — the test is that we got here.
    assert_eq!(accepted + rejected, 2000);
    assert!(rejected > 0, "bit flips should break at least one frame");
}

#[test]
fn truncations_and_extensions_never_panic_the_decoder() {
    let frames = base_frames();
    let mut rng = SimRng::seed(0xF0_56);
    for round in 0..500 {
        let base = &frames[round % frames.len()];
        // Truncate at a random point (including mid-header)...
        let cut = rng.next_below(base.len() + 1);
        let _ = decode(&base[..cut]);
        // ...and append random trailing garbage after a valid frame.
        let mut extended = base.clone();
        for _ in 0..rng.next_below(16) {
            extended.push(rng.next_below(256) as u8);
        }
        let _ = decode(&extended);
    }
}

#[test]
fn oversize_lengths_are_rejected_without_allocating() {
    // Length prefixes above the cap must be refused before the body
    // allocation — a 4 GiB prefix with two bytes of body proves it.
    for len in [
        MAX_FRAME_BYTES + 1,
        MAX_FRAME_BYTES * 2,
        u32::MAX - 1,
        u32::MAX,
    ] {
        let mut frame = Vec::from(len.to_le_bytes());
        frame.extend_from_slice(b"xx");
        let err = read_frame(&mut &frame[..]).expect_err("oversize must be an error");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
    // Exactly at the cap is allowed through framing (the body read
    // then fails cleanly on our two-byte stub).
    let mut frame = Vec::from(MAX_FRAME_BYTES.to_le_bytes());
    frame.extend_from_slice(b"xx");
    let err = read_frame(&mut &frame[..]).expect_err("short body is an error");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn mutated_json_bodies_error_structurally() {
    // Valid frame, hostile body: JSON that parses but violates the
    // request schema must come back as Err, not panic.
    let hostile = [
        r"{}",
        r#"{"op":"submit"}"#,
        r#"{"op":"submit","tenant":"t0"}"#,
        r#"{"op":"submit","tenant":"t0","job":{}}"#,
        r#"{"op":"submit","tenant":"t0","job":{"kind":"conv"}}"#,
        r#"{"op":"submit","tenant":"t0","job":{"kind":"random","seed":1},"deadline_ms":"soon"}"#,
        r#"{"op":"poll"}"#,
        r#"{"op":"poll","id":"seven"}"#,
        r#"{"op":"result","id":-1}"#,
        r#"{"op":"unknown_verb","id":1}"#,
        r"[1,2,3]",
        r#""just a string""#,
    ];
    for body in hostile {
        let mut frame = Vec::from(u32::try_from(body.len()).unwrap().to_le_bytes());
        frame.extend_from_slice(body.as_bytes());
        match read_frame(&mut &frame[..]) {
            Ok(Some(doc)) => {
                assert!(
                    Request::from_json(&doc).is_err(),
                    "hostile body must not parse as a request: {body}"
                );
            }
            Ok(None) => panic!("a full frame is not EOF: {body}"),
            Err(err) => {
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "hostile body must fail structurally: {body}"
                );
            }
        }
    }
    // And a spot-check that the golden path still works after all the
    // hostility above.
    let good = Request::Stats.to_json();
    let mut frame = Vec::new();
    write_frame(&mut frame, &good).unwrap();
    let doc = read_frame(&mut &frame[..]).unwrap().unwrap();
    assert_eq!(doc.render(), good.render());
}

/// Encodes `spec` in a submit frame and decodes it as the server does.
fn submit(spec: JobSpec) -> Result<Request, String> {
    let mut frame = Vec::new();
    let request = Request::Submit {
        tenant: "t0".to_owned(),
        spec,
        deadline_ms: None,
    };
    write_frame(&mut frame, &request.to_json()).expect("valid frame encodes");
    Request::from_json(&read_frame(&mut &frame[..]).unwrap().unwrap())
}

#[test]
fn oversized_jobs_are_refused_at_decode() {
    // Run, a 2^40-multiplier fabric aborts the process on a failed
    // allocation in `ConvMapper::shape`, which no worker pool contains,
    // and 2^40 input channels keep a search running for minutes. So
    // decoding refuses both, and the server answers `bad_request`.
    let layer = |channels| ConvLayer::new("big", channels, 8, 8, 4, 3, 3, 1, 1);
    let fabric = |num_ms| FabricSpec {
        num_ms,
        ..FabricSpec::default()
    };
    for (spec, cap) in [
        (
            JobSpec::Conv {
                layer: layer(3),
                fabric: fabric(1 << 40),
            },
            MAX_WIRE_MULTIPLIERS,
        ),
        (
            JobSpec::MapSearch {
                layer: layer(1 << 40),
                fabric: fabric(64),
            },
            MAX_WIRE_LAYER_DIM,
        ),
    ] {
        let err = submit(spec).expect_err("an oversized job is refused");
        assert!(
            err.contains(&cap.to_string()),
            "the refusal names the cap: {err}"
        );
    }
    let at_caps = JobSpec::Conv {
        layer: layer(MAX_WIRE_LAYER_DIM),
        fabric: fabric(MAX_WIRE_MULTIPLIERS),
    };
    assert!(submit(at_caps).is_ok(), "a job at both caps decodes");
}

#[test]
fn jobs_whose_work_passes_a_cap_are_refused_at_decode() {
    // Every field of these is inside its cap, yet each held a worker
    // for over a minute: on the widest fabric, a cycle trace and a
    // search of a 1x1 layer with 65,536 channels, filters, rows and
    // columns (2^64 MACs), and a cycle trace over a one-channel
    // 65,536 x 65,536 map with one filter (2^32 MACs, but 2^40 output
    // columns x multipliers^2). The fourth searches 65,536 channels of
    // a 1x1 map, 2^28 channels x multipliers.
    let widest = FabricSpec {
        num_ms: MAX_WIRE_MULTIPLIERS,
        ..FabricSpec::default()
    };
    let dim = MAX_WIRE_LAYER_DIM;
    let square = ConvLayer::new("square", dim, dim, dim, dim, 1, 1, 1, 0);
    let wide_map = ConvLayer::new("wide_map", 1, dim, dim, 1, 1, 1, 1, 0);
    let deep = ConvLayer::new("deep", dim, 1, 1, 1, 1, 1, 1, 0);
    for (spec, cap) in [
        (
            JobSpec::TelemetryConv {
                layer: square.clone(),
                fabric: widest,
            },
            MAX_WIRE_LAYER_MACS,
        ),
        (
            JobSpec::MapSearch {
                layer: square,
                fabric: widest,
            },
            MAX_WIRE_LAYER_MACS,
        ),
        (
            JobSpec::TelemetryConv {
                layer: wide_map,
                fabric: widest,
            },
            MAX_WIRE_TRACE_WORK,
        ),
        (
            JobSpec::MapSearch {
                layer: deep,
                fabric: widest,
            },
            MAX_WIRE_SEARCH_WORK,
        ),
    ] {
        let name = format!("{spec:?}");
        let err = submit(spec).expect_err("a job past a work cap is refused");
        assert!(
            err.contains(&cap.to_string()),
            "{name}: the refusal names the cap: {err}"
        );
    }

    // Every CONV layer of the zoo still decodes as each capped kind on
    // the widest fabric the repo sends.
    let fabric = FabricSpec {
        num_ms: 128,
        ..FabricSpec::default()
    };
    for model in maeri_dnn::zoo::all_models() {
        for layer in model.conv_layers() {
            for spec in [
                JobSpec::Conv {
                    layer: layer.clone(),
                    fabric,
                },
                JobSpec::TelemetryConv {
                    layer: layer.clone(),
                    fabric,
                },
                JobSpec::MapSearch {
                    layer: layer.clone(),
                    fabric,
                },
            ] {
                let name = format!("{spec:?}");
                assert!(submit(spec).is_ok(), "{name} is refused");
            }
        }
    }
}
