//! The placement-policy catalog.
//!
//! [`maeri_sim::catalog!`] keeps [`PlacementPolicy::ALL`] and the
//! stable names complete by construction. The fleet tests and the
//! `fleet_schedule` report sweep `ALL`, and a test below keeps every
//! policy listed in DESIGN.md.

maeri_sim::catalog! {
    /// How the fleet scheduler picks an instance for each incoming layer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum PlacementPolicy {
        /// The baseline: every slot serves a paper-64 MAERI fabric (the
        /// fleet is [homogenized](crate::Fleet::homogenized) at equal
        /// instance count) and jobs go to the least-busy instance.
        HomogeneousMaeri => "homogeneous_maeri",
        /// Rotate through capable instances, blind to cost and load.
        RoundRobin => "round_robin",
        /// Best backend per layer: minimize simulated cycles, blind to
        /// queue depth; ties go to the lowest instance id.
        Greedy => "greedy",
        /// Minimize projected completion time: queue-drain time of the
        /// instance plus the layer's virtual service cost there; ties go
        /// to the cheaper backend, then the lowest id.
        LoadAware => "load_aware",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_complete_and_names_are_unique() {
        let names: std::collections::HashSet<_> =
            PlacementPolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), PlacementPolicy::ALL.len());
        assert!(names.contains("homogeneous_maeri"));
        assert!(names.contains("round_robin"));
        assert!(names.contains("greedy"));
        assert!(names.contains("load_aware"));
        // A new policy ships documented: DESIGN.md §15.3 lists each one.
        let design = include_str!("../../../DESIGN.md");
        for policy in PlacementPolicy::ALL {
            assert!(
                design.contains(&format!("`{}`", policy.name())),
                "placement policy `{}` is not listed in DESIGN.md",
                policy.name()
            );
        }
    }
}
