//! The framed-socket wire protocol and a blocking client.
//!
//! Every message — request or response — is one *frame*: a `u32`
//! little-endian byte length followed by that many bytes of JSON.
//! Requests are objects with an `op` field:
//!
//! ```text
//! {"op":"submit","tenant":"t0","job":{...}}   -> {"ok":true,"id":7}
//! {"op":"poll","id":7}                        -> {"ok":true,"id":7,"status":"done"}
//! {"op":"result","id":7}                      -> {"ok":true,"id":7,"result":{...}}
//! {"op":"stats"}                              -> {"ok":true,"stats":{...}}
//! {"op":"metrics"}                            -> {"ok":true,"metrics":"# HELP ..."}
//! ```
//!
//! A submit may carry an optional `"deadline_ms":N` field: the runtime
//! watchdog abandons the job past the deadline and publishes a
//! structured timeout instead of wedging a worker.
//!
//! Failures are `{"ok":false,"error":<code>,"message":<text>}` with
//! error codes `backpressure`, `invalid_mapping`, `circuit_open`,
//! `closed`, `unknown_id`, `pending`, and `bad_request`.
//!
//! The `job` object is a [`JobSpec`]: a wire-friendly subset of the
//! runtime's [`SimJob`] vocabulary (dense conv, fc, lstm, telemetry
//! conv, mapping search, and seeded random layers), each with an
//! optional `fabric` override (`{"ms":64,"dist_bw":8,"collect_bw":8}`).
//! Decoding refuses a fabric field above [`MAX_WIRE_MULTIPLIERS`] and a
//! layer dimension above [`MAX_WIRE_LAYER_DIM`] with `bad_request`, and
//! a CONV job whose work passes [`MAX_WIRE_LAYER_MACS`],
//! [`MAX_WIRE_TRACE_WORK`] or [`MAX_WIRE_SEARCH_WORK`]: the field caps
//! bound each field on its own, and their products can still hold a
//! worker for minutes.

use std::io::{Read, Write};
use std::net::TcpStream;

use maeri::{MaeriConfig, VnPolicy};
use maeri_dnn::{ConvLayer, FcLayer, Layer, LstmLayer};
use maeri_mapspace::{SearchLayer, SearchSpec};
use maeri_runtime::SimJob;
use maeri_telemetry::json::{self, JsonValue};

/// Frames larger than this are rejected as malformed.
pub const MAX_FRAME_BYTES: u32 = 1024 * 1024;

/// The most multiplier switches a wire fabric may have, and so the most
/// bandwidth: 32x the largest wire fabric the repo sends (128, in the
/// round-trip tests). A fabric's mapping tables grow with its leaves,
/// and an allocation that fails aborts the process, which no worker
/// pool can contain.
pub const MAX_WIRE_MULTIPLIERS: usize = 4096;

/// The largest layer dimension a wire job may carry: about 2.6x the
/// zoo's largest (`vgg16_fc14`'s 25,088 inputs). It bounds every
/// field on its own, not their products.
pub const MAX_WIRE_LAYER_DIM: usize = 65_536;

/// The most multiply-accumulates a wire `conv`, `telemetry_conv` or
/// `map_search` layer may carry: about 9.3x the zoo's largest
/// (`vgg16_conv2`, 1,849,688,064).
pub const MAX_WIRE_LAYER_MACS: u64 = 1 << 34;

/// The most clocked work a wire `telemetry_conv` or `map_search` may
/// ask for, as output columns × multipliers². A clocked trace steps
/// every switch through one output row (the search traces the row
/// once per validated frontier point, at most nine times), and a step
/// takes at most about one cycle per multiplier, since both its inputs
/// and its outputs fit the fabric. About 9.1x `vgg16_conv1` (224
/// columns) on the repo's largest wire fabric (128 multipliers). On
/// one core of a 2-core host, telemetry traces at this cap took
/// 0.05–0.4 s, and at 2^28 0.3–3.2 s.
pub const MAX_WIRE_TRACE_WORK: u64 = 1 << 25;

/// The most enumeration work a wire `map_search` may ask for, as input
/// channels × multipliers: the search scores every channel tile at
/// every VN width, and planning a candidate walks the fabric. 64x
/// `vgg16`'s 512 channels on 128 multipliers. On one core of a 2-core
/// host, searches at this cap took 0.5–1.5 s, and one at 2^28 (65,536
/// channels on 4,096 multipliers) 23 s.
pub const MAX_WIRE_SEARCH_WORK: u64 = 1 << 22;

/// Fabric geometry carried on the wire; defaults to the paper's
/// 64-switch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricSpec {
    /// Multiplier switches (power of two >= 4).
    pub num_ms: usize,
    /// Distribution-tree root bandwidth (words/cycle).
    pub dist_bw: usize,
    /// ART root bandwidth (words/cycle).
    pub collect_bw: usize,
}

impl Default for FabricSpec {
    fn default() -> Self {
        let cfg = MaeriConfig::paper_64();
        FabricSpec {
            num_ms: cfg.num_mult_switches(),
            dist_bw: cfg.dist_bandwidth(),
            collect_bw: cfg.collect_bandwidth(),
        }
    }
}

impl FabricSpec {
    /// Builds the simulator config.
    ///
    /// # Errors
    ///
    /// Returns the builder's validation message for illegal geometry.
    pub fn build(&self) -> Result<MaeriConfig, String> {
        MaeriConfig::builder(self.num_ms)
            .distribution_bandwidth(self.dist_bw)
            .collection_bandwidth(self.collect_bw)
            .build()
            .map_err(|e| e.to_string())
    }

    fn to_json(self) -> JsonValue {
        JsonValue::object()
            .with("ms", JsonValue::UInt(self.num_ms as u64))
            .with("dist_bw", JsonValue::UInt(self.dist_bw as u64))
            .with("collect_bw", JsonValue::UInt(self.collect_bw as u64))
    }

    fn from_json(value: Option<&JsonValue>) -> Result<Self, String> {
        let default = FabricSpec::default();
        let Some(value) = value else {
            return Ok(default);
        };
        let dim = |name: &str, fallback: usize| -> Result<usize, String> {
            let Some(v) = value.get(name) else {
                return Ok(fallback);
            };
            let v = v
                .as_u64()
                .ok_or_else(|| format!("fabric field `{name}` is not an integer"))?;
            usize::try_from(v)
                .ok()
                .filter(|&v| v <= MAX_WIRE_MULTIPLIERS)
                .ok_or_else(|| format!("fabric field `{name}` exceeds {MAX_WIRE_MULTIPLIERS}"))
        };
        Ok(FabricSpec {
            num_ms: dim("ms", default.num_ms)?,
            dist_bw: dim("dist_bw", default.dist_bw)?,
            collect_bw: dim("collect_bw", default.collect_bw)?,
        })
    }
}

/// A wire-level job description.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Dense CONV on the MAERI fabric (auto VN policy).
    Conv {
        /// Layer shape.
        layer: ConvLayer,
        /// Fabric geometry.
        fabric: FabricSpec,
    },
    /// Fully-connected layer.
    Fc {
        /// Layer shape.
        layer: FcLayer,
        /// Fabric geometry.
        fabric: FabricSpec,
    },
    /// LSTM layer.
    Lstm {
        /// Layer shape.
        layer: LstmLayer,
        /// Fabric geometry.
        fabric: FabricSpec,
    },
    /// Telemetry-instrumented cycle trace of a CONV layer.
    TelemetryConv {
        /// Layer shape.
        layer: ConvLayer,
        /// Fabric geometry.
        fabric: FabricSpec,
    },
    /// Mapping-space search over a CONV layer.
    MapSearch {
        /// Layer shape.
        layer: ConvLayer,
        /// Fabric geometry.
        fabric: FabricSpec,
    },
    /// A seeded random CONV or FC layer
    /// ([`maeri_dnn::Layer::random`]) — the traffic generator's
    /// synthetic workload.
    Random {
        /// Generator seed.
        seed: u64,
        /// Fabric geometry.
        fabric: FabricSpec,
    },
}

impl JobSpec {
    /// Lowers the wire spec into the runtime's job vocabulary.
    ///
    /// # Errors
    ///
    /// Returns a message when the fabric geometry fails validation.
    pub fn to_sim_job(&self) -> Result<SimJob, String> {
        match self {
            JobSpec::Conv { layer, fabric } => Ok(SimJob::dense_conv(
                fabric.build()?,
                layer.clone(),
                VnPolicy::Auto,
            )),
            JobSpec::Fc { layer, fabric } => Ok(SimJob::Fc {
                cfg: fabric.build()?,
                layer: layer.clone(),
            }),
            JobSpec::Lstm { layer, fabric } => Ok(SimJob::Lstm {
                cfg: fabric.build()?,
                layer: layer.clone(),
            }),
            JobSpec::TelemetryConv { layer, fabric } => Ok(SimJob::telemetry_conv(
                fabric.build()?,
                layer.clone(),
                VnPolicy::Auto,
            )),
            JobSpec::MapSearch { layer, fabric } => Ok(SimJob::map_search(SearchSpec::new(
                SearchLayer::Conv(layer.clone()),
                fabric.build()?,
            ))),
            JobSpec::Random { seed, fabric } => {
                let cfg = fabric.build()?;
                Ok(match Layer::random(*seed) {
                    Layer::Conv(layer) => SimJob::dense_conv(cfg, layer, VnPolicy::Auto),
                    Layer::Fc(layer) => SimJob::Fc { cfg, layer },
                    Layer::Lstm(layer) => SimJob::Lstm { cfg, layer },
                    // `Layer::random` only emits conv/fc today; route
                    // any future kind through the pool mapper's shape.
                    Layer::Pool(layer) => SimJob::Pool { cfg, layer },
                    _ => SimJob::health_check(),
                })
            }
        }
    }

    /// The `job` JSON object.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let conv_fields = |doc: JsonValue, layer: &ConvLayer| {
            doc.with("name", JsonValue::Str(layer.name.clone()))
                .with("in_channels", JsonValue::UInt(layer.in_channels as u64))
                .with("in_h", JsonValue::UInt(layer.in_h as u64))
                .with("in_w", JsonValue::UInt(layer.in_w as u64))
                .with("out_channels", JsonValue::UInt(layer.out_channels as u64))
                .with("kernel_h", JsonValue::UInt(layer.kernel_h as u64))
                .with("kernel_w", JsonValue::UInt(layer.kernel_w as u64))
                .with("stride", JsonValue::UInt(layer.stride as u64))
                .with("pad", JsonValue::UInt(layer.pad as u64))
        };
        match self {
            JobSpec::Conv { layer, fabric } => conv_fields(
                JsonValue::object().with("kind", JsonValue::Str("conv".to_owned())),
                layer,
            )
            .with("fabric", fabric.to_json()),
            JobSpec::TelemetryConv { layer, fabric } => conv_fields(
                JsonValue::object().with("kind", JsonValue::Str("telemetry_conv".to_owned())),
                layer,
            )
            .with("fabric", fabric.to_json()),
            JobSpec::MapSearch { layer, fabric } => conv_fields(
                JsonValue::object().with("kind", JsonValue::Str("map_search".to_owned())),
                layer,
            )
            .with("fabric", fabric.to_json()),
            JobSpec::Fc { layer, fabric } => JsonValue::object()
                .with("kind", JsonValue::Str("fc".to_owned()))
                .with("name", JsonValue::Str(layer.name.clone()))
                .with("inputs", JsonValue::UInt(layer.inputs as u64))
                .with("outputs", JsonValue::UInt(layer.outputs as u64))
                .with("fabric", fabric.to_json()),
            JobSpec::Lstm { layer, fabric } => JsonValue::object()
                .with("kind", JsonValue::Str("lstm".to_owned()))
                .with("name", JsonValue::Str(layer.name.clone()))
                .with("input_dim", JsonValue::UInt(layer.input_dim as u64))
                .with("hidden_dim", JsonValue::UInt(layer.hidden_dim as u64))
                .with("fabric", fabric.to_json()),
            JobSpec::Random { seed, fabric } => JsonValue::object()
                .with("kind", JsonValue::Str("random".to_owned()))
                .with("seed", JsonValue::UInt(*seed))
                .with("fabric", fabric.to_json()),
        }
    }

    /// Parses a `job` JSON object.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown kinds, missing/mistyped fields, a
    /// layer dimension above [`MAX_WIRE_LAYER_DIM`], a fabric field
    /// above [`MAX_WIRE_MULTIPLIERS`], or a CONV job whose work passes
    /// [`MAX_WIRE_LAYER_MACS`], [`MAX_WIRE_TRACE_WORK`] or
    /// [`MAX_WIRE_SEARCH_WORK`].
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let str_field = |name: &str| -> Result<String, String> {
            value
                .get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("job field `{name}` missing or not a string"))
        };
        let dim_field = |name: &str| -> Result<usize, String> {
            let v = value
                .get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("job field `{name}` missing or not an integer"))?;
            usize::try_from(v)
                .ok()
                .filter(|&v| v <= MAX_WIRE_LAYER_DIM)
                .ok_or_else(|| format!("job field `{name}` exceeds {MAX_WIRE_LAYER_DIM}"))
        };
        let fabric = FabricSpec::from_json(value.get("fabric"))?;
        let kind = str_field("kind")?;
        let conv_layer = || -> Result<ConvLayer, String> {
            let name = str_field("name")?;
            let (c, h, w) = (
                dim_field("in_channels")?,
                dim_field("in_h")?,
                dim_field("in_w")?,
            );
            let (k, kh, kw) = (
                dim_field("out_channels")?,
                dim_field("kernel_h")?,
                dim_field("kernel_w")?,
            );
            let (stride, pad) = (dim_field("stride")?, dim_field("pad")?);
            if c == 0 || h == 0 || w == 0 || k == 0 || kh == 0 || kw == 0 || stride == 0 {
                return Err("conv layer dimensions must be positive".to_owned());
            }
            if kh > h + 2 * pad || kw > w + 2 * pad {
                return Err("conv kernel larger than padded input".to_owned());
            }
            let layer = ConvLayer::new(&name, c, h, w, k, kh, kw, stride, pad);
            within_work_caps(&kind, &layer, fabric)?;
            Ok(layer)
        };
        match kind.as_str() {
            "conv" => Ok(JobSpec::Conv {
                layer: conv_layer()?,
                fabric,
            }),
            "telemetry_conv" => Ok(JobSpec::TelemetryConv {
                layer: conv_layer()?,
                fabric,
            }),
            "map_search" => Ok(JobSpec::MapSearch {
                layer: conv_layer()?,
                fabric,
            }),
            "fc" => {
                let (inputs, outputs) = (dim_field("inputs")?, dim_field("outputs")?);
                if inputs == 0 || outputs == 0 {
                    return Err("fc layer dimensions must be positive".to_owned());
                }
                Ok(JobSpec::Fc {
                    layer: FcLayer::new(&str_field("name")?, inputs, outputs),
                    fabric,
                })
            }
            "lstm" => {
                let (input_dim, hidden_dim) = (dim_field("input_dim")?, dim_field("hidden_dim")?);
                if input_dim == 0 || hidden_dim == 0 {
                    return Err("lstm layer dimensions must be positive".to_owned());
                }
                Ok(JobSpec::Lstm {
                    layer: LstmLayer::new(&str_field("name")?, input_dim, hidden_dim),
                    fabric,
                })
            }
            "random" => Ok(JobSpec::Random {
                seed: value
                    .get("seed")
                    .and_then(JsonValue::as_u64)
                    .ok_or("job field `seed` missing or not an integer")?,
                fabric,
            }),
            other => Err(format!("unknown job kind `{other}`")),
        }
    }
}

/// Refuses a `kind` CONV job on `fabric` whose work passes a cap: the
/// layer's MACs for every kind, a clocked trace's work for
/// `telemetry_conv` and `map_search`, and the enumeration's for
/// `map_search`. Counted in `u128`, which no product of capped fields
/// overflows.
fn within_work_caps(kind: &str, layer: &ConvLayer, fabric: FabricSpec) -> Result<(), String> {
    let [k, p, q, c, r, s, ms] = [
        layer.out_channels,
        layer.out_h(),
        layer.out_w(),
        layer.in_channels,
        layer.kernel_h,
        layer.kernel_w,
        fabric.num_ms,
    ]
    .map(|dim| dim as u128);
    let mut caps = vec![("MACs", k * p * q * c * r * s, MAX_WIRE_LAYER_MACS)];
    if kind != "conv" {
        let trace = q * ms * ms;
        caps.push(("output columns x multipliers^2", trace, MAX_WIRE_TRACE_WORK));
    }
    if kind == "map_search" {
        caps.push(("input channels x multipliers", c * ms, MAX_WIRE_SEARCH_WORK));
    }
    match caps
        .into_iter()
        .find(|&(_, work, cap)| work > u128::from(cap))
    {
        Some((what, work, cap)) => Err(format!("{kind} job has {work} {what}, above {cap}")),
        None => Ok(()),
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job for `tenant`.
    Submit {
        /// Tenant name (the admission-control bucket).
        tenant: String,
        /// The job to run.
        spec: JobSpec,
        /// Optional per-request deadline (milliseconds) enforced by
        /// the runtime watchdog.
        deadline_ms: Option<u64>,
    },
    /// Ask for a job's status.
    Poll {
        /// The job id returned by submit.
        id: u64,
    },
    /// Fetch a finished job's stored result.
    Fetch {
        /// The job id returned by submit.
        id: u64,
    },
    /// Fetch the service metrics snapshot.
    Stats,
    /// Fetch the Prometheus text exposition (counters, gauges,
    /// latency quantiles, per-tenant SLO series).
    Metrics,
}

impl Request {
    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown ops or malformed fields.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let op = value
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or("request missing string field `op`")?;
        let id = || {
            value
                .get("id")
                .and_then(JsonValue::as_u64)
                .ok_or("request missing integer field `id`")
        };
        match op {
            "submit" => {
                let deadline_ms = match value.get("deadline_ms") {
                    None => None,
                    Some(v) => Some(
                        v.as_u64()
                            .ok_or("submit field `deadline_ms` is not an integer")?,
                    ),
                };
                Ok(Request::Submit {
                    tenant: value
                        .get("tenant")
                        .and_then(JsonValue::as_str)
                        .ok_or("submit missing string field `tenant`")?
                        .to_owned(),
                    spec: JobSpec::from_json(
                        value
                            .get("job")
                            .ok_or("submit missing object field `job`")?,
                    )?,
                    deadline_ms,
                })
            }
            "poll" => Ok(Request::Poll { id: id()? }),
            "result" => Ok(Request::Fetch { id: id()? }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Renders the request as a frame body.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        match self {
            Request::Submit {
                tenant,
                spec,
                deadline_ms,
            } => {
                let doc = JsonValue::object()
                    .with("op", JsonValue::Str("submit".to_owned()))
                    .with("tenant", JsonValue::Str(tenant.clone()))
                    .with("job", spec.to_json());
                // Emitted only when set, so deadline-free submits keep
                // their pre-deadline byte encoding.
                match deadline_ms {
                    Some(ms) => doc.with("deadline_ms", JsonValue::UInt(*ms)),
                    None => doc,
                }
            }
            Request::Poll { id } => JsonValue::object()
                .with("op", JsonValue::Str("poll".to_owned()))
                .with("id", JsonValue::UInt(*id)),
            Request::Fetch { id } => JsonValue::object()
                .with("op", JsonValue::Str("result".to_owned()))
                .with("id", JsonValue::UInt(*id)),
            Request::Stats => JsonValue::object().with("op", JsonValue::Str("stats".to_owned())),
            Request::Metrics => {
                JsonValue::object().with("op", JsonValue::Str("metrics".to_owned()))
            }
        }
    }
}

/// Writes one length-prefixed JSON frame.
///
/// # Errors
///
/// Propagates the underlying write error; rejects frames over
/// [`MAX_FRAME_BYTES`] as `InvalidData`.
pub fn write_frame(writer: &mut impl Write, doc: &JsonValue) -> std::io::Result<()> {
    let body = doc.render().into_bytes();
    let len = u32::try_from(body.len()).unwrap_or(u32::MAX);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(&body)?;
    writer.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream (the
/// peer closed between frames); a connection dropped mid-frame or a
/// malformed body is an `InvalidData`/`UnexpectedEof` error.
///
/// # Errors
///
/// Propagates read errors; malformed JSON and oversized lengths are
/// `InvalidData`.
pub fn read_frame(reader: &mut impl Read) -> std::io::Result<Option<JsonValue>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = reader.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-header",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    let doc =
        json::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(Some(doc))
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
}

/// A submit outcome the server reported without running the job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The machine-readable error code.
    pub code: String,
    /// The human-readable message.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates the connection error.
    pub fn connect(addr: &std::net::SocketAddr) -> std::io::Result<Self> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Sends one request frame and reads one response frame.
    ///
    /// # Errors
    ///
    /// I/O or framing failures; a server that closes without answering
    /// is `UnexpectedEof`.
    pub fn request(&mut self, request: &Request) -> std::io::Result<JsonValue> {
        write_frame(&mut self.stream, &request.to_json())?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            )
        })
    }

    /// Submits a job; `Ok(Ok(id))` on admission, `Ok(Err(_))` when the
    /// server rejected it (backpressure, invalid mapping, ...).
    ///
    /// # Errors
    ///
    /// Transport failures only; protocol-level rejections are the
    /// inner `Result`.
    pub fn submit(
        &mut self,
        tenant: &str,
        spec: &JobSpec,
    ) -> std::io::Result<Result<u64, WireError>> {
        let response = self.request(&Request::Submit {
            tenant: tenant.to_owned(),
            spec: spec.clone(),
            deadline_ms: None,
        })?;
        Ok(decode_submit(&response))
    }

    /// [`Client::submit`] with a per-request deadline in milliseconds.
    ///
    /// # Errors
    ///
    /// Transport failures only; protocol-level rejections are the
    /// inner `Result`.
    pub fn submit_with_deadline(
        &mut self,
        tenant: &str,
        spec: &JobSpec,
        deadline_ms: u64,
    ) -> std::io::Result<Result<u64, WireError>> {
        let response = self.request(&Request::Submit {
            tenant: tenant.to_owned(),
            spec: spec.clone(),
            deadline_ms: Some(deadline_ms),
        })?;
        Ok(decode_submit(&response))
    }

    /// Polls a job's status string (`queued`, `running`, `done`,
    /// `failed`).
    ///
    /// # Errors
    ///
    /// Transport failures, or `InvalidData` when the server reports an
    /// unknown id.
    pub fn poll(&mut self, id: u64) -> std::io::Result<String> {
        let response = self.request(&Request::Poll { id })?;
        response
            .get("status")
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("poll failed: {}", response.render()),
                )
            })
    }

    /// Fetches the Prometheus text exposition.
    ///
    /// # Errors
    ///
    /// Transport failures, or `InvalidData` on a malformed response.
    pub fn metrics_text(&mut self) -> std::io::Result<String> {
        let response = self.request(&Request::Metrics)?;
        response
            .get("metrics")
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("metrics failed: {}", response.render()),
                )
            })
    }

    /// Fetches the service stats object.
    ///
    /// # Errors
    ///
    /// Transport failures, or `InvalidData` on a malformed response.
    pub fn stats(&mut self) -> std::io::Result<JsonValue> {
        let response = self.request(&Request::Stats)?;
        response.get("stats").cloned().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("stats failed: {}", response.render()),
            )
        })
    }
}

fn decode_submit(response: &JsonValue) -> Result<u64, WireError> {
    if response.get("ok").and_then(JsonValue::as_bool) == Some(true) {
        response
            .get("id")
            .and_then(JsonValue::as_u64)
            .ok_or(WireError {
                code: "bad_response".to_owned(),
                message: "submit response missing id".to_owned(),
            })
    } else {
        Err(WireError {
            code: response
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_owned(),
            message: response
                .get("message")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_json_round_trip() {
        let specs = vec![
            JobSpec::Conv {
                layer: ConvLayer::new("c1", 3, 27, 27, 16, 3, 3, 1, 1),
                fabric: FabricSpec::default(),
            },
            JobSpec::Fc {
                layer: FcLayer::new("fc6", 9216, 4096),
                fabric: FabricSpec {
                    num_ms: 128,
                    dist_bw: 16,
                    collect_bw: 8,
                },
            },
            JobSpec::Lstm {
                layer: LstmLayer::new("rnn", 256, 512),
                fabric: FabricSpec::default(),
            },
            JobSpec::Random {
                seed: 99,
                fabric: FabricSpec::default(),
            },
        ];
        for spec in specs {
            let parsed = JobSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(parsed, spec);
            spec.to_sim_job().unwrap();
        }
    }

    #[test]
    fn malformed_job_is_an_error_not_a_panic() {
        let zero_dim = JsonValue::object()
            .with("kind", JsonValue::Str("fc".to_owned()))
            .with("name", JsonValue::Str("bad".to_owned()))
            .with("inputs", JsonValue::UInt(0))
            .with("outputs", JsonValue::UInt(10));
        assert!(JobSpec::from_json(&zero_dim).is_err());
        let unknown = JsonValue::object().with("kind", JsonValue::Str("gemm".to_owned()));
        assert!(JobSpec::from_json(&unknown).is_err());
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let doc = Request::Submit {
            tenant: "t0".to_owned(),
            spec: JobSpec::Random {
                seed: 7,
                fabric: FabricSpec::default(),
            },
            deadline_ms: None,
        }
        .to_json();
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        let mut cursor = &buf[..];
        let read = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(read.render(), doc.render());
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        let mut oversize = Vec::from((MAX_FRAME_BYTES + 1).to_le_bytes());
        oversize.extend_from_slice(b"xx");
        assert!(read_frame(&mut &oversize[..]).is_err());
    }

    #[test]
    fn submit_deadline_round_trips_and_stays_optional() {
        let spec = JobSpec::Random {
            seed: 3,
            fabric: FabricSpec::default(),
        };
        let with = Request::Submit {
            tenant: "t0".to_owned(),
            spec: spec.clone(),
            deadline_ms: Some(250),
        };
        let parsed = Request::from_json(&with.to_json()).unwrap();
        assert_eq!(parsed, with);
        let without = Request::Submit {
            tenant: "t0".to_owned(),
            spec,
            deadline_ms: None,
        };
        let rendered = without.to_json().render();
        assert!(
            !rendered.contains("deadline_ms"),
            "a deadline-free submit keeps its pre-deadline encoding"
        );
        assert_eq!(Request::from_json(&without.to_json()).unwrap(), without);
    }

    #[test]
    fn request_parse_rejects_unknown_op() {
        let doc = JsonValue::object().with("op", JsonValue::Str("reboot".to_owned()));
        assert!(Request::from_json(&doc).is_err());
    }
}
