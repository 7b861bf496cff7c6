//! Declared metric tables. [`metric_table!`](crate::metric_table)
//! turns one row per counter (its key, its Prometheus [`MetricKind`]
//! and family with an optional fixed label, and its help text) into
//! the shared atomics, a snapshot struct and a static [`MetricRow`]
//! array. Every renderer walks the snapshot's `rows()`, so a counter
//! cannot reach one output and miss another. The runtime and the
//! service each declare one table.

maeri_sim::catalog! {
    /// The Prometheus metric kinds a row can declare.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum MetricKind {
        /// A monotonically increasing count.
        Counter => "counter",
        /// A value that can go up and down.
        Gauge => "gauge",
    }
}

/// One declared metric: its key and its Prometheus sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricRow {
    /// The snapshot field, which is also the JSON key.
    pub key: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The Prometheus family the sample belongs to.
    pub family: &'static str,
    /// The sample's fixed label, when several rows share a family.
    pub label: Option<(&'static str, &'static str)>,
    /// The family's `# HELP` text.
    pub help: &'static str,
}

/// Declares a metric table from one list of rows.
///
/// The invocation names the atomics struct with its non-row fields and
/// their initializers, the snapshot struct with its non-row fields, and
/// the static row array. *Counted* rows become `AtomicU64` fields,
/// visible to the declaring crate. Rows of the optional `read(..)`
/// section are expressions over its arguments, evaluated by the
/// generated private `read`, which takes the snapshot's non-row fields
/// and then those arguments. The snapshot gains `rows()`, each row with
/// its value in table order, and `rows_json()`, one flat JSON object of
/// them.
///
/// ```
/// maeri_telemetry::metric_table! {
///     pub struct Metrics {}
///     pub struct Snapshot {
///         pub label: &'static str,
///     }
///     static ROWS;
///     counted {
///         jobs: Counter "jobs_total" => "Jobs run.",
///     }
///     read(queued: usize) {
///         queued: Gauge "queued" => "Jobs waiting." = queued as u64,
///     }
/// }
///
/// let metrics = Metrics::new();
/// metrics.jobs.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// let snap = metrics.read("probe", 5);
/// assert_eq!(snap.rows_json().render(), r#"{"jobs":2,"queued":5}"#);
/// assert_eq!(snap.label, "probe");
/// ```
#[macro_export]
macro_rules! metric_table {
    (@label) => { None };
    (@label $name:ident $value:literal) => { Some((stringify!($name), $value)) };
    (@row $key:ident $kind:ident $family:literal $help:literal $($name:ident $value:literal)?) => {
        $crate::metrics::MetricRow {
            key: stringify!($key),
            kind: $crate::metrics::MetricKind::$kind,
            family: $family,
            label: $crate::metric_table!(@label $($name $value)?),
            help: $help,
        }
    };
    (
        $(#[$m_attr:meta])*
        $m_vis:vis struct $metrics:ident {
            $($m_field:ident: $m_ty:ty = $m_init:expr,)*
        }
        $(#[$s_attr:meta])*
        $s_vis:vis struct $snapshot:ident {
            $($(#[$f_attr:meta])* $f_vis:vis $f_field:ident: $f_ty:ty,)*
        }
        $(#[$r_attr:meta])*
        $r_vis:vis static $rows:ident;
        counted {
            $($c_key:ident: $c_kind:ident $c_family:literal $({ $c_lk:ident = $c_lv:literal })?
                => $c_help:literal,)+
        }
        $(read($($arg:ident: $arg_ty:ty),+) {
            $($r_key:ident: $r_kind:ident $r_family:literal $({ $r_lk:ident = $r_lv:literal })?
                => $r_help:literal = $r_value:expr,)+
        })?
    ) => {
        $(#[$m_attr])*
        #[derive(Debug)]
        $m_vis struct $metrics {
            $(#[doc = $c_help] pub(crate) $c_key: ::std::sync::atomic::AtomicU64,)+
            $($m_field: $m_ty,)*
        }

        impl $metrics {
            /// Creates zeroed metrics.
            #[must_use]
            pub fn new() -> Self {
                $metrics {
                    $($c_key: ::std::sync::atomic::AtomicU64::new(0),)+
                    $($m_field: $m_init,)*
                }
            }

            fn read(&self, $($f_field: $f_ty,)* $($($arg: $arg_ty),+)?) -> $snapshot {
                $snapshot {
                    $($c_key: self.$c_key.load(::std::sync::atomic::Ordering::Relaxed),)+
                    $($($r_key: $r_value,)+)?
                    $($f_field,)*
                }
            }
        }

        impl Default for $metrics {
            fn default() -> Self {
                $metrics::new()
            }
        }

        $(#[$s_attr])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        $s_vis struct $snapshot {
            $(#[doc = $c_help] pub $c_key: u64,)+
            $($(#[doc = $r_help] pub $r_key: u64,)+)?
            $($(#[$f_attr])* $f_vis $f_field: $f_ty,)*
        }

        impl $snapshot {
            /// Every row of the table with its value, in table order.
            pub fn rows(&self) -> impl Iterator<Item = (&'static $crate::metrics::MetricRow, u64)> {
                $rows.iter().zip([$(self.$c_key,)+ $($(self.$r_key,)+)?])
            }

            /// Every row as one flat JSON object, in table order.
            #[must_use]
            pub fn rows_json(&self) -> $crate::json::JsonValue {
                let entry = |(row, value): (&$crate::metrics::MetricRow, u64)| {
                    (row.key.to_owned(), $crate::json::JsonValue::UInt(value))
                };
                $crate::json::JsonValue::Object(self.rows().map(entry).collect())
            }
        }

        $(#[$r_attr])*
        $r_vis static $rows: [$crate::metrics::MetricRow;
            [$(stringify!($c_key),)+ $($(stringify!($r_key),)+)?].len()] = [
            $($crate::metric_table!(@row $c_key $c_kind $c_family $c_help $($c_lk $c_lv)?),)+
            $($($crate::metric_table!(@row $r_key $r_kind $r_family $r_help $($r_lk $r_lv)?),)+)?
        ];
    };
}
