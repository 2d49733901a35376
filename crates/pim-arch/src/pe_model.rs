//! The sparse-PE tile model the [`Mapper`](crate::mapper::Mapper) prices
//! deployments with is `pim-pe`'s config-level cost functions; these tests
//! pin the mapper's tile costs to what the cycle simulators charge.

mod tests {
    use crate::mapper::Mapper;
    use pim_pe::{MramSparsePe, SparsePe, SramSparsePe};
    use pim_sparse::prune::prune_magnitude;
    use pim_sparse::{CscMatrix, Matrix, NmPattern};

    fn tile(rows: usize, cols: usize, pattern: NmPattern) -> CscMatrix {
        let dense = Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 7) % 251) as i32 - 125) as i8
        });
        let mask = prune_magnitude(&dense, pattern).unwrap();
        CscMatrix::compress(&dense, &mask).unwrap()
    }

    #[test]
    fn sram_matvec_model_matches_cycle_simulator() {
        let pattern = NmPattern::one_of_four();
        let csc = tile(64, 8, pattern);
        let mut pe = SramSparsePe::new();
        pe.load(&csc).unwrap();
        let report = pe.matvec(&[7i8; 64]).unwrap();

        let mapper = Mapper::dac24();
        let cost = mapper.sram_pe().matvec_cost(pattern.m(), 64);
        assert_eq!(cost.cycles, report.cycles);
        assert!((cost.latency.as_ns() - report.latency.as_ns()).abs() < 1e-9);
        assert!((cost.energy.total().as_pj() - report.energy.total().as_pj()).abs() < 1e-6);
        assert!((cost.energy.leakage.as_pj() - report.energy.leakage.as_pj()).abs() < 1e-6);
    }

    #[test]
    fn mram_matvec_model_matches_cycle_simulator() {
        let pattern = NmPattern::one_of_eight();
        let csc = tile(672, 4, pattern);
        let mut pe = MramSparsePe::new();
        pe.load(&csc).unwrap();
        let report = pe.matvec(&[3i8; 672]).unwrap();

        // 672 rows at 1:8 → 84 slots per column → 2 rows per column → 8 rows.
        let mapper = Mapper::dac24();
        let cost = mapper.mram_pe().matvec_cost(8, 84 * 4);
        assert_eq!(cost.cycles, report.cycles);
        assert!((cost.latency.as_ns() - report.latency.as_ns()).abs() < 1e-9);
        assert!((cost.energy.total().as_pj() - report.energy.total().as_pj()).abs() < 1e-6);
    }
}
