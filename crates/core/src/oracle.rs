//! The line between the exploration method and its evaluation: the
//! method sees FPGA reports only through an [`FpgaOracle`], which logs
//! and charges every synthesis. See DESIGN.md, "Method and evaluation".

use std::collections::BTreeSet;

use afp_fpga::FpgaReport;

use crate::record::CircuitRecord;

/// Every circuit's FPGA report in library order, released by index to
/// the method and in full only to the scoring step.
pub(crate) struct FpgaOracle {
    reports: Vec<FpgaReport>,
    log: BTreeSet<usize>,
}

impl FpgaOracle {
    /// Split `records` into the method's view and the oracle.
    pub(crate) fn split(records: Vec<CircuitRecord>) -> (Vec<CircuitRecord<()>>, FpgaOracle) {
        let (records, reports) = records.into_iter().map(|r| r.replace_fpga(())).unzip();
        let log = BTreeSet::new();
        (records, FpgaOracle { reports, log })
    }

    /// The reports of `indices`, in order, and the modeled synthesis
    /// seconds charged: each index joins the log and is charged the
    /// first time it is synthesized.
    pub(crate) fn synthesize(&mut self, indices: &[usize]) -> (Vec<FpgaReport>, f64) {
        let reports = indices.iter().map(|&i| self.reports[i]).collect();
        let charge = (indices.iter().filter(|&&i| self.log.insert(i)))
            .map(|&i| self.reports[i].synth_time_s)
            .sum();
        (reports, charge)
    }

    /// Every index synthesized so far, ascending.
    pub(crate) fn log(&self) -> &BTreeSet<usize> {
        &self.log
    }

    /// End the method: every report, and the log.
    pub(crate) fn reveal(self) -> (Vec<FpgaReport>, BTreeSet<usize>) {
        (self.reports, self.log)
    }
}
