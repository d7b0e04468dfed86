//! Output checks. Every op is one attempt; an op that errors or whose
//! answer fails a check is one failure.

use flextract_frame::Aggregates;

/// Ops attempted and failed, with the first failure kept for the log.
#[derive(Debug, Default)]
pub struct Checks {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or failed a check.
    pub failed: u64,
    /// What went wrong first.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Count one op with its verdict.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        self.fail_if(verdict);
    }

    /// Charge a failure found after the op was counted (a check run
    /// once the timed phase is over) to an op already attempted.
    pub fn fail_if(&mut self, verdict: Result<(), String>) {
        if let Err(what) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(what);
        }
    }
}

/// `Ok` when `got` equals `want` bit for bit.
pub fn same_aggregates(what: &str, got: &Aggregates, want: &Aggregates) -> Result<(), String> {
    let bits = |a: &Aggregates| {
        (
            a.intervals,
            a.observed,
            a.gaps,
            a.sum_kwh.to_bits(),
            a.min.map(f64::to_bits),
            a.max.map(f64::to_bits),
        )
    };
    if bits(got) == bits(want) {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

/// `Ok` when two serialized reports are byte-identical.
pub fn same_text(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        let at = got
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        Err(format!("{what}: differs from the reference at byte {at}"))
    }
}

/// `Ok` when `got == want`.
pub fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(sum: f64) -> Aggregates {
        Aggregates {
            intervals: 4,
            observed: 4,
            gaps: 0,
            sum_kwh: sum,
            min: Some(0.25),
            max: Some(1.0),
        }
    }

    #[test]
    fn a_wrong_answer_counts_as_a_failure() {
        let mut checks = Checks::default();
        checks.op(same_aggregates("right", &agg(2.5), &agg(2.5)));
        checks.op(same_aggregates("wrong sum", &agg(2.5), &agg(2.5 + 1e-12)));
        checks.op(same_text("report", "{\"offers\":3}", "{\"offers\":4}"));
        checks.op(same("generation", 3_u64, 2));
        assert_eq!(checks.attempted, 4);
        assert_eq!(checks.failed, 3);
        assert!(checks
            .first_failure
            .as_deref()
            .is_some_and(|f| f.starts_with("wrong sum")));
    }

    #[test]
    fn aggregates_compare_bitwise() {
        let mut a = agg(1.0);
        a.min = Some(-0.0);
        let mut b = agg(1.0);
        b.min = Some(0.0);
        assert!(same_aggregates("signed zero", &a, &b).is_err());
        assert!(same_aggregates("equal", &a, &a).is_ok());
    }

    #[test]
    fn late_failures_charge_without_a_new_attempt() {
        let mut checks = Checks::default();
        checks.op(Ok(()));
        checks.fail_if(Err("warm differs from cold".into()));
        assert_eq!((checks.attempted, checks.failed), (1, 1));
    }

    #[test]
    fn text_mismatch_names_the_byte() {
        let err = same_text("r", "abcd", "abXd").unwrap_err();
        assert!(err.contains("byte 2"), "{err}");
    }
}
