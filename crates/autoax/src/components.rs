//! The approximate-component library feeding the accelerator slots:
//! 9 approximate 8x8 multipliers and 8 approximate 16-bit adders (the
//! paper's counts), each with behavioural model and FPGA cost report.

use afp_circuits::{adders, multipliers, ArithCircuit, ArithKind, BatchEvaluator};
use afp_fpga::{synthesize_fpga, FpgaConfig, FpgaReport};

/// One selectable component: an approximate circuit plus its FPGA report.
#[derive(Clone, Debug)]
pub struct Component {
    circuit: ArithCircuit,
    fpga: FpgaReport,
    /// Full 8x8 product table for multipliers (None for adders).
    mult_table: Option<Vec<u16>>,
}

impl Component {
    /// Wrap a circuit, synthesizing it for the FPGA model.
    pub fn new(mut circuit: ArithCircuit, fpga_config: &FpgaConfig) -> Component {
        circuit.simplify();
        let fpga = synthesize_fpga(circuit.netlist(), fpga_config);
        let mult_table = if circuit.kind() == ArithKind::Multiplier && circuit.width() == 8 {
            let pairs: Vec<(u64, u64)> = (0..256u64)
                .flat_map(|a| (0..256u64).map(move |b| (a, b)))
                .collect();
            let mut batch = BatchEvaluator::new(&circuit);
            Some(batch.eval_pairs(&pairs).iter().map(|&v| v as u16).collect())
        } else {
            None
        };
        Component {
            circuit,
            fpga,
            mult_table,
        }
    }

    /// The wrapped circuit.
    pub fn circuit(&self) -> &ArithCircuit {
        &self.circuit
    }

    /// Component name.
    pub fn name(&self) -> &str {
        self.circuit.name()
    }

    /// FPGA cost report.
    pub fn fpga(&self) -> &FpgaReport {
        &self.fpga
    }

    /// Behavioural 8x8 multiply via the precomputed table.
    ///
    /// # Panics
    ///
    /// Panics if this component is not an 8x8 multiplier.
    pub fn mult(&self, a: u8, b: u8) -> u16 {
        let table = self
            .mult_table
            .as_ref()
            .expect("component is not an 8x8 multiplier");
        table[(a as usize) << 8 | b as usize]
    }

    /// Behavioural adder evaluation for a batch of 16-bit operand pairs.
    ///
    /// # Panics
    ///
    /// Panics if this component is not an adder.
    pub fn add_batch(&self, pairs: &[(u64, u64)]) -> Vec<u64> {
        assert_eq!(
            self.circuit.kind(),
            ArithKind::Adder,
            "component is not an adder"
        );
        let mut batch = BatchEvaluator::new(&self.circuit);
        batch.eval_pairs(pairs)
    }
}

/// The slot-assignable component library.
#[derive(Clone, Debug)]
pub struct ComponentLibrary {
    multipliers: Vec<Component>,
    adders: Vec<Component>,
}

impl ComponentLibrary {
    /// Build from explicit component lists.
    ///
    /// # Panics
    ///
    /// Panics if either list is empty, a multiplier is not 8x8, or an
    /// adder is not 16-bit.
    pub fn new(multipliers: Vec<Component>, adders: Vec<Component>) -> ComponentLibrary {
        assert!(
            !multipliers.is_empty() && !adders.is_empty(),
            "component lists must be non-empty"
        );
        for m in &multipliers {
            assert_eq!(m.circuit.kind(), ArithKind::Multiplier, "not a multiplier");
            assert_eq!(m.circuit.width(), 8, "multipliers must be 8x8");
        }
        for a in &adders {
            assert_eq!(a.circuit.kind(), ArithKind::Adder, "not an adder");
            assert_eq!(a.circuit.width(), 16, "adders must be 16-bit");
        }
        ComponentLibrary {
            multipliers,
            adders,
        }
    }

    /// The paper's component counts: 9 pareto-style 8x8 multipliers and 8
    /// 16-bit adders, spanning exact → heavily approximate.
    pub fn paper_defaults(fpga_config: &FpgaConfig) -> ComponentLibrary {
        let mult_circuits = vec![
            multipliers::wallace_multiplier(8), // exact anchor
            multipliers::truncated(8, 2),
            multipliers::truncated(8, 4),
            multipliers::truncated(8, 6),
            multipliers::broken_array(8, 4, 2),
            multipliers::broken_array(8, 6, 2),
            multipliers::underdesigned(8, 0x0001),
            multipliers::underdesigned(8, 0x0113),
            multipliers::approx_compressor(8, 6),
        ];
        let adder_circuits = vec![
            adders::ripple_carry(16), // exact anchor
            adders::loa(16, 4),
            adders::loa(16, 6),
            adders::loa(16, 8),
            adders::truncated(16, 4),
            adders::no_carry(16, 6),
            adders::gear(16, 4, 4),
            adders::afa_substituted(16, 5, adders::ApproxFa::IgnoreCin),
        ];
        ComponentLibrary::new(
            mult_circuits
                .into_iter()
                .map(|c| Component::new(c, fpga_config))
                .collect(),
            adder_circuits
                .into_iter()
                .map(|c| Component::new(c, fpga_config))
                .collect(),
        )
    }

    /// The multiplier options.
    pub fn multipliers(&self) -> &[Component] {
        &self.multipliers
    }

    /// The adder options.
    pub fn adders(&self) -> &[Component] {
        &self.adders
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn library() -> ComponentLibrary {
        ComponentLibrary::paper_defaults(&FpgaConfig::default())
    }

    #[test]
    fn paper_counts_match() {
        let lib = library();
        assert_eq!(lib.multipliers().len(), 9);
        assert_eq!(lib.adders().len(), 8);
    }

    #[test]
    fn mult_table_matches_behaviour() {
        let lib = library();
        let exact = &lib.multipliers()[0];
        assert_eq!(exact.mult(13, 11), 143);
        assert_eq!(exact.mult(255, 255), 65025);
        // Truncated multiplier underestimates small products.
        let trunc = &lib.multipliers()[3];
        assert!(trunc.mult(3, 3) <= 9);
    }

    #[test]
    fn adders_evaluate_in_batch() {
        let lib = library();
        let exact = &lib.adders()[0];
        let out = exact.add_batch(&[(1000, 2000), (65535, 1)]);
        assert_eq!(out, vec![3000, 65536]);
    }

    #[test]
    fn components_have_nonzero_costs_and_exact_is_priciest_area() {
        let lib = library();
        let exact_luts = lib.multipliers()[0].fpga().luts;
        assert!(exact_luts > 0);
        for m in lib.multipliers() {
            assert!(m.fpga().luts > 0);
            assert!(m.fpga().power_mw > 0.0);
        }
        let min_luts = lib
            .multipliers()
            .iter()
            .map(|m| m.fpga().luts)
            .min()
            .unwrap();
        assert!(min_luts < exact_luts, "approximations should save LUTs");
    }

    #[test]
    #[should_panic(expected = "not an 8x8 multiplier")]
    fn adder_has_no_mult_table() {
        let lib = library();
        let _ = lib.adders()[0].mult(1, 2);
    }
}
