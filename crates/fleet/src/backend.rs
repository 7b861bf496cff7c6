//! The [`Backend`] abstraction: one latency/energy cost interface over
//! MAERI fabrics and the baseline accelerators.
//!
//! A backend turns a [`Layer`] into the [`SimJob`] that models it on
//! that hardware, runs the job through the shared
//! [`maeri_runtime::Runtime`], and prices the result with the
//! backend's [`EnergyModel`]. Because every probe is an ordinary
//! runtime job, per-(layer, backend) costs are memoized by the
//! content-hash cache — the fleet scheduler can re-ask freely, and a
//! degraded MAERI config (its [`FaultSpec`](maeri::FaultSpec) is part of the job key)
//! never aliases a healthy one.

use maeri::{MaeriConfig, VnPolicy};
use maeri_baselines::cost::cluster_dense_tile;
use maeri_dnn::Layer;
use maeri_ppa::EnergyModel;
use maeri_runtime::{Runtime, SimJob};
use maeri_serve::loadsim::virtual_cost_us_capped;

/// Cap on the cycle-drain term of a layer's virtual service time, in
/// microseconds. Higher than the serving stack's 50 ms request cap:
/// fleet traffic is whole layers (alexnet_conv1 alone is 5.2M cycles),
/// and capping them all to one ceiling would flatten exactly the
/// per-backend latency differences placement exploits.
pub const SERVICE_CAP_US: u64 = 200_000;

/// One accelerator design a fleet instance can be built from.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// A MAERI fabric (any multiplier count; may carry faults).
    Maeri {
        /// Fabric configuration, including any [`maeri::FaultSpec`].
        cfg: MaeriConfig,
    },
    /// The weight-stationary systolic-array baseline.
    Systolic {
        /// PE rows.
        rows: usize,
        /// PE columns.
        cols: usize,
        /// SRAM bandwidth in words/cycle.
        sram_bandwidth: usize,
    },
    /// The Eyeriss-style row-stationary baseline.
    RowStationary {
        /// PE rows.
        rows: usize,
        /// PE columns.
        cols: usize,
        /// SRAM bandwidth in words/cycle.
        sram_bandwidth: usize,
    },
    /// The SCNN-style fixed-cluster baseline (dense pricing).
    Cluster {
        /// Number of clusters.
        clusters: usize,
        /// PEs per cluster.
        cluster_size: usize,
        /// Shared-bus bandwidth in words/cycle.
        bus_bandwidth: usize,
    },
}

/// What one layer costs on one backend, in the fleet's currencies:
/// simulated cycles, modeled energy, and the virtual service time the
/// fleet clock accounts (same [`virtual_cost_us`](maeri_serve::loadsim::virtual_cost_us) the serving stack
/// uses, so service-level and fleet-level latencies are comparable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendCost {
    /// Simulated execution cycles.
    pub cycles: u64,
    /// Modeled energy in nanojoules.
    pub energy_nj: f64,
    /// Virtual service time in microseconds.
    pub service_us: u64,
}

impl Backend {
    /// A short kind tag (`"maeri"`, `"systolic"`, ...), stable for
    /// report grouping.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Backend::Maeri { .. } => "maeri",
            Backend::Systolic { .. } => "systolic",
            Backend::RowStationary { .. } => "rowstat",
            Backend::Cluster { .. } => "cluster",
        }
    }

    /// A display name carrying the geometry (`"maeri-64"`,
    /// `"systolic-8x8"`, ...).
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Backend::Maeri { cfg } => format!("maeri-{}", cfg.num_mult_switches()),
            Backend::Systolic { rows, cols, .. } => format!("systolic-{rows}x{cols}"),
            Backend::RowStationary { rows, cols, .. } => format!("rowstat-{rows}x{cols}"),
            Backend::Cluster {
                clusters,
                cluster_size,
                ..
            } => format!("cluster-{clusters}x{cluster_size}"),
        }
    }

    /// The energy constants for this backend. MAERI's average hop
    /// count is its tree depth (integer-derived, so the value is
    /// host-independent); the spatial arrays use the systolic profile;
    /// the cluster bus is one hop plus the four-level internal adder
    /// tree.
    #[must_use]
    pub fn energy_model(&self) -> EnergyModel {
        match self {
            Backend::Maeri { cfg } => EnergyModel {
                avg_hops: cfg.art_depth() as f64,
                ..EnergyModel::maeri_64()
            },
            Backend::Systolic { .. } | Backend::RowStationary { .. } => EnergyModel::systolic_8x8(),
            Backend::Cluster { .. } => EnergyModel {
                avg_hops: 5.0,
                ..EnergyModel::maeri_64()
            },
        }
    }

    /// The runtime job modeling `layer` on this backend, or `None` for
    /// layer kinds the backend has no mapping for (the spatial arrays
    /// run CONV — and FC on the systolic array — while MAERI runs the
    /// full vocabulary).
    #[must_use]
    pub fn job_for(&self, layer: &Layer) -> Option<SimJob> {
        match (self, layer) {
            (Backend::Maeri { cfg }, Layer::Conv(conv)) => {
                Some(SimJob::dense_conv(*cfg, conv.clone(), VnPolicy::Auto))
            }
            (Backend::Maeri { cfg }, Layer::Fc(fc)) => Some(SimJob::Fc {
                cfg: *cfg,
                layer: fc.clone(),
            }),
            (Backend::Maeri { cfg }, Layer::Lstm(lstm)) => Some(SimJob::Lstm {
                cfg: *cfg,
                layer: lstm.clone(),
            }),
            (Backend::Maeri { cfg }, Layer::Pool(pool)) => Some(SimJob::Pool {
                cfg: *cfg,
                layer: pool.clone(),
            }),
            (
                Backend::Systolic {
                    rows,
                    cols,
                    sram_bandwidth,
                },
                Layer::Conv(conv),
            ) => Some(SimJob::systolic_conv(
                *rows,
                *cols,
                *sram_bandwidth,
                conv.clone(),
            )),
            (
                Backend::Systolic {
                    rows,
                    cols,
                    sram_bandwidth,
                },
                Layer::Fc(fc),
            ) => Some(SimJob::systolic_fc(
                *rows,
                *cols,
                *sram_bandwidth,
                fc.clone(),
            )),
            (
                Backend::RowStationary {
                    rows,
                    cols,
                    sram_bandwidth,
                },
                Layer::Conv(conv),
            ) => Some(SimJob::row_stationary_conv(
                *rows,
                *cols,
                *sram_bandwidth,
                conv.clone(),
            )),
            (
                Backend::Cluster {
                    clusters,
                    cluster_size,
                    bus_bandwidth,
                },
                Layer::Conv(conv),
            ) => Some(SimJob::ClusterSparseConv {
                clusters: *clusters,
                cluster_size: *cluster_size,
                bus_bandwidth: *bus_bandwidth,
                layer: conv.clone(),
                // Dense pricing: an all-ones mask at the same channel
                // tile the uniform baseline cost interface uses.
                zero_fraction: 0.0,
                channel_tile: cluster_dense_tile(conv.in_channels),
                mask_seed: 0,
            }),
            _ => None,
        }
    }

    /// Measures what `layer` costs on this backend through `runtime`
    /// (memoized by the content-hash cache). `None` when the backend
    /// has no mapping for the layer kind *or* the mapping fails — e.g.
    /// a fault plan that leaves too few healthy multipliers — so the
    /// scheduler treats both as "not a candidate".
    #[must_use]
    pub fn cost(&self, layer: &Layer, runtime: &Runtime) -> Option<BackendCost> {
        let job = self.job_for(layer)?;
        let result = runtime.run_one(&job);
        let service_us = virtual_cost_us_capped(&result, SERVICE_CAP_US);
        let run = result.ok()?.into_run_stats();
        Some(BackendCost {
            cycles: run.cycles.as_u64(),
            energy_nj: self.energy_model().run_energy_nj(&run),
            service_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri_dnn::{zoo, FcLayer};

    #[test]
    fn backends_name_and_kind_distinctly() {
        let backends = [
            Backend::Maeri {
                cfg: MaeriConfig::paper_64(),
            },
            Backend::Systolic {
                rows: 8,
                cols: 8,
                sram_bandwidth: 8,
            },
            Backend::RowStationary {
                rows: 8,
                cols: 8,
                sram_bandwidth: 8,
            },
            Backend::Cluster {
                clusters: 4,
                cluster_size: 16,
                bus_bandwidth: 8,
            },
        ];
        let names: std::collections::HashSet<_> = backends.iter().map(Backend::name).collect();
        assert_eq!(names.len(), 4);
        let kinds: std::collections::HashSet<_> = backends.iter().map(Backend::kind).collect();
        assert_eq!(kinds.len(), 4);
    }

    #[test]
    fn every_backend_costs_a_conv() {
        let runtime = Runtime::new(1);
        let layer = Layer::Conv(zoo::fig17_example());
        for backend in [
            Backend::Maeri {
                cfg: MaeriConfig::paper_64(),
            },
            Backend::Systolic {
                rows: 8,
                cols: 8,
                sram_bandwidth: 8,
            },
            Backend::RowStationary {
                rows: 8,
                cols: 8,
                sram_bandwidth: 8,
            },
            Backend::Cluster {
                clusters: 4,
                cluster_size: 16,
                bus_bandwidth: 8,
            },
        ] {
            let cost = backend
                .cost(&layer, &runtime)
                .expect("conv maps everywhere");
            assert!(cost.cycles > 0, "{}", backend.name());
            assert!(cost.energy_nj > 0.0, "{}", backend.name());
            assert!(cost.service_us >= 150, "{}", backend.name());
        }
    }

    #[test]
    fn layer_kind_gaps_are_none_not_errors() {
        let runtime = Runtime::new(1);
        let lstm = zoo::deepspeech2()
            .layer("ds2_rnn2")
            .cloned()
            .expect("zoo lstm");
        let rowstat = Backend::RowStationary {
            rows: 8,
            cols: 8,
            sram_bandwidth: 8,
        };
        assert!(rowstat.cost(&lstm, &runtime).is_none());
        assert!(rowstat
            .cost(&Layer::Fc(FcLayer::new("fc", 64, 8)), &runtime)
            .is_none());
        let maeri = Backend::Maeri {
            cfg: MaeriConfig::paper_64(),
        };
        assert!(maeri.cost(&lstm, &runtime).is_some());
    }

    #[test]
    fn maeri_energy_hops_track_tree_depth() {
        let m64 = Backend::Maeri {
            cfg: MaeriConfig::paper_64(),
        };
        assert_eq!(m64.energy_model(), EnergyModel::maeri_64());
        let m256 = Backend::Maeri {
            cfg: MaeriConfig::builder(256).build().expect("valid geometry"),
        };
        assert!(m256.energy_model().avg_hops > m64.energy_model().avg_hops);
    }

    #[test]
    fn cost_probes_hit_the_runtime_cache() {
        let runtime = Runtime::new(1);
        let backend = Backend::Systolic {
            rows: 8,
            cols: 8,
            sram_bandwidth: 8,
        };
        let layer = Layer::Conv(zoo::fig17_example());
        let a = backend.cost(&layer, &runtime);
        let hits_before = runtime.metrics().cache_hits;
        let b = backend.cost(&layer, &runtime);
        assert_eq!(a, b);
        assert!(
            runtime.metrics().cache_hits > hits_before,
            "the second identical probe must be a cache hit"
        );
    }
}
