//! The peak-based extraction approach (paper §3.2, Figure 5).
//!
//! Per day: (1) detect peaks above the daily average; (2) discard peaks
//! smaller than the day's flexible part (`share × day total`);
//! (3) choose one surviving peak with size-proportional probability;
//! (4) extract one flex-offer positioned at that peak — "one flex-offer
//! per consumer per day".

use crate::extractor::{build_offer, FlexibilityExtractor};
use crate::io::{PeakDayReport, PeakInfo};
use crate::{Diagnostics, ExtractionConfig, ExtractionError, ExtractionInput, ExtractionOutput};
use flextract_series::peaks::{detect_peaks_into, selection_probabilities_into};
use flextract_series::segment::whole_day_ranges;
use flextract_series::{PeakThreshold, TimeSeries};
use rand::rngs::StdRng;
use rand::Rng;

/// The peak-detection line: the day's mean interval energy, the
/// paper's "average daily consumption" (§3.2).
const THRESHOLD: PeakThreshold = PeakThreshold::Mean;

/// Peak-positioned extraction: one flex-offer per consumer per day.
#[derive(Debug, Clone)]
pub struct PeakExtractor {
    cfg: ExtractionConfig,
}

impl PeakExtractor {
    /// Build with the given configuration.
    pub fn new(cfg: ExtractionConfig) -> Self {
        PeakExtractor { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExtractionConfig {
        &self.cfg
    }
}

/// Size-proportional random pick (the paper's roulette selection).
fn weighted_pick(rng: &mut StdRng, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
    if total <= 0.0 {
        return None;
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            target -= w;
            if target <= 0.0 {
                return Some(i);
            }
        }
    }
    weights.iter().rposition(|w| *w > 0.0)
}

impl FlexibilityExtractor for PeakExtractor {
    fn name(&self) -> &'static str {
        "peak"
    }

    /// One pass over the whole days of `input.series`, each read as a
    /// slice of it. The detected peaks, the survivors (indices into
    /// them), their probabilities and the offer's slice energies live in
    /// four buffers reused from day to day, so a call allocates its two
    /// output series, its offer list, and per day only what it returns:
    /// the day's report rows, the offer and any note.
    fn extract(
        &self,
        input: &ExtractionInput<'_>,
        rng: &mut StdRng,
    ) -> Result<ExtractionOutput, ExtractionError> {
        self.cfg.validate()?;
        let series = input.series;
        if series.is_empty() {
            return Err(ExtractionError::EmptySeries);
        }
        let mut modified = series.clone();
        let mut extracted = TimeSeries::zeros_like(series);
        let days = whole_day_ranges(series);
        let mut offers = Vec::with_capacity(days.len());
        let mut diagnostics = Diagnostics {
            peak_reports: Vec::with_capacity(days.len()),
            ..Diagnostics::default()
        };
        let mut next_id = 1u64;
        let (mut peaks, mut survivors, mut probs, mut energies) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());

        for day_range in days {
            let day_start = series.timestamp_of(day_range.start);
            let day = &series.values()[day_range.clone()];
            let day_total: f64 = day.iter().sum();
            if day_total <= 0.0 {
                diagnostics.notes.push(format!(
                    "{}: zero-consumption day skipped",
                    day_start.date()
                ));
                continue;
            }
            // Phase 1: detection above the daily average line.
            let threshold = THRESHOLD.resolve(day)?;
            detect_peaks_into(day, day_start, series.resolution(), threshold, &mut peaks);
            // Phase 2: filtering by the flexible part of the day.
            let min_peak_energy = self.cfg.flexible_share * day_total;
            survivors.clear();
            survivors.extend((0..peaks.len()).filter(|&i| peaks[i].energy_kwh >= min_peak_energy));
            selection_probabilities_into(
                survivors.iter().map(|&i| peaks[i].energy_kwh),
                &mut probs,
            );
            // Phase 3: size-proportional selection.
            let chosen = weighted_pick(rng, &probs);

            // Assemble the Figure-5 report for this day. Survivors are
            // in peak order, so one cursor pairs each peak with its
            // survivor slot.
            let mut report = PeakDayReport {
                day: day_start,
                day_total_kwh: day_total,
                threshold_kwh: threshold,
                min_peak_energy_kwh: min_peak_energy,
                peaks: Vec::with_capacity(peaks.len()),
                selected: None,
            };
            let mut slots = survivors.iter().enumerate().peekable();
            for (i, p) in peaks.iter().enumerate() {
                let surv_idx = slots.next_if(|&(_, &s)| s == i).map(|(j, _)| j);
                report.peaks.push(PeakInfo {
                    number: i + 1,
                    start: p.range.start(),
                    intervals: p.len,
                    size_kwh: p.energy_kwh,
                    survived_filter: surv_idx.is_some(),
                    probability: surv_idx.map(|j| probs[j]).unwrap_or(0.0),
                });
            }

            let Some(sel) = chosen else {
                diagnostics.notes.push(format!(
                    "{}: no peak survived the {min_peak_energy:.3} kWh filter",
                    day_start.date()
                ));
                diagnostics.peak_reports.push(report);
                continue;
            };
            let peak = &peaks[survivors[sel]];
            report.selected = Some(survivors[sel] + 1);
            diagnostics.peak_reports.push(report);

            // Phase 4: one flex-offer, positioned on the peak, carrying
            // the day's whole flexible part, shaped like the peak.
            let n = peak.len.min(self.cfg.slices_per_offer.1).max(1);
            let window = &day[peak.start_index..peak.start_index + n];
            let window_energy: f64 = window.iter().sum();
            energies.clear();
            energies.extend(window.iter().map(|c| min_peak_energy * c / window_energy));
            let at = day_range.start + peak.start_index;
            let left = &mut modified.values_mut()[at..at + n];
            let taken = &mut extracted.values_mut()[at..at + n];
            for ((e, m), x) in energies.iter_mut().zip(left).zip(taken) {
                *e = e.min(m.max(0.0));
                *m -= *e;
                *x += *e;
            }
            let offer = build_offer(next_id, &self.cfg, rng, peak.range.start(), &energies)?;
            next_id += 1;
            offers.push(offer);
        }
        Ok(ExtractionOutput {
            approach: self.name(),
            flex_offers: offers,
            modified_series: modified,
            extracted_series: extracted,
            diagnostics,
        })
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_series::TimeSeries;
    use flextract_time::{Resolution, Timestamp};
    use rand::SeedableRng;

    /// A synthetic day with two dominant peaks and several small ones —
    /// the Figure-5 situation in miniature.
    fn two_peak_day() -> TimeSeries {
        let mut values = vec![0.2; 96];
        // Small morning bumps (will be filtered out at 5 %).
        values[20] = 0.6;
        values[30] = 0.7;
        // Midday peak: 4 intervals, ~2.6 kWh.
        for v in values.iter_mut().skip(44).take(4) {
            *v = 0.65;
        }
        // Evening peak: 6 intervals, ~5.0 kWh.
        for v in values.iter_mut().skip(72).take(6) {
            *v = 0.83;
        }
        TimeSeries::new(
            "2013-03-18".parse::<Timestamp>().unwrap(),
            Resolution::MIN_15,
            values,
        )
        .unwrap()
    }

    fn run(series: &TimeSeries, cfg: ExtractionConfig, seed: u64) -> ExtractionOutput {
        PeakExtractor::new(cfg)
            .extract(
                &ExtractionInput::household(series),
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap()
    }

    #[test]
    fn one_offer_per_day() {
        let series = two_peak_day();
        let out = run(&series, ExtractionConfig::default(), 1);
        assert_eq!(out.flex_offers.len(), 1);
        out.check_invariants(&series).unwrap();
    }

    #[test]
    fn report_reproduces_the_walkthrough_structure() {
        let series = two_peak_day();
        let out = run(&series, ExtractionConfig::default(), 1);
        let report = &out.diagnostics.peak_reports[0];
        // Threshold is the daily mean.
        let mean = series.total_energy() / 96.0;
        assert!((report.threshold_kwh - mean).abs() < 1e-9);
        // Filter threshold is share × day total.
        assert!((report.min_peak_energy_kwh - 0.05 * series.total_energy()).abs() < 1e-9);
        // Exactly two survivors, probabilities sum to 1.
        let survivors: Vec<&PeakInfo> = report.peaks.iter().filter(|p| p.survived_filter).collect();
        assert_eq!(survivors.len(), 2, "{:?}", report.peaks);
        let p_sum: f64 = survivors.iter().map(|p| p.probability).sum();
        assert!((p_sum - 1.0).abs() < 1e-9);
        // The bigger peak has the bigger probability.
        assert!(survivors[1].size_kwh > survivors[0].size_kwh);
        assert!(survivors[1].probability > survivors[0].probability);
        // Selection picked a surviving peak.
        let sel = report.selected.unwrap();
        assert!(report.peaks[sel - 1].survived_filter);
    }

    #[test]
    fn offer_sits_on_the_selected_peak() {
        let series = two_peak_day();
        let out = run(&series, ExtractionConfig::default(), 1);
        let report = &out.diagnostics.peak_reports[0];
        let sel = &report.peaks[report.selected.unwrap() - 1];
        assert_eq!(out.flex_offers[0].earliest_start(), sel.start);
    }

    #[test]
    fn selection_frequency_tracks_peak_size() {
        let series = two_peak_day();
        let mut evening = 0;
        let n = 300;
        for seed in 0..n {
            let out = run(&series, ExtractionConfig::default(), seed);
            let report = &out.diagnostics.peak_reports[0];
            let sel = &report.peaks[report.selected.unwrap() - 1];
            if sel.intervals == 6 {
                evening += 1;
            }
        }
        let p = evening as f64 / n as f64;
        // Expected ≈ 5.0/(5.0+2.6) ≈ 0.66.
        assert!((p - 0.66).abs() < 0.1, "evening selection rate {p}");
    }

    #[test]
    fn extracted_energy_is_days_flexible_part() {
        let series = two_peak_day();
        let out = run(&series, ExtractionConfig::default(), 2);
        let expect = 0.05 * series.total_energy();
        assert!(
            (out.extracted_energy() - expect).abs() < 1e-9,
            "{} vs {expect}",
            out.extracted_energy()
        );
    }

    #[test]
    fn flat_day_has_no_peaks_and_no_offers() {
        // 0.5 is exactly representable, so the mean equals every value
        // and the strict `>` comparison cannot flip on rounding.
        let series = TimeSeries::constant(
            "2013-03-18".parse::<Timestamp>().unwrap(),
            Resolution::MIN_15,
            0.5,
            96,
        );
        let out = run(&series, ExtractionConfig::default(), 3);
        assert!(out.flex_offers.is_empty());
        assert!(out
            .diagnostics
            .notes
            .iter()
            .any(|n| n.contains("no peak survived")));
        // The report is still emitted, with zero survivors.
        assert_eq!(out.diagnostics.peak_reports.len(), 1);
        assert!(out.diagnostics.peak_reports[0].peaks.is_empty());
    }

    #[test]
    fn large_share_can_filter_every_peak() {
        let series = two_peak_day();
        let out = run(&series, ExtractionConfig::with_share(0.5), 4);
        assert!(out.flex_offers.is_empty());
    }

    #[test]
    fn multi_day_input_yields_one_offer_per_day() {
        let mut series = two_peak_day();
        let day2 = TimeSeries::new(
            "2013-03-19".parse::<Timestamp>().unwrap(),
            Resolution::MIN_15,
            two_peak_day().into_values(),
        )
        .unwrap();
        series.concat(&day2).unwrap();
        let out = run(&series, ExtractionConfig::default(), 6);
        assert_eq!(out.flex_offers.len(), 2);
        assert_eq!(out.diagnostics.peak_reports.len(), 2);
        out.check_invariants(&series).unwrap();
    }

    #[test]
    fn empty_series_errors() {
        let series = TimeSeries::new(
            "2013-03-18".parse::<Timestamp>().unwrap(),
            Resolution::MIN_15,
            vec![],
        )
        .unwrap();
        let ex = PeakExtractor::new(ExtractionConfig::default());
        assert_eq!(
            ex.extract(
                &ExtractionInput::household(&series),
                &mut StdRng::seed_from_u64(1)
            ),
            Err(ExtractionError::EmptySeries)
        );
    }

    /// Run the extractor and its oracle from the same generator state;
    /// outputs (offers, diagnostics, series bits) and generators must
    /// agree.
    fn assert_matches_oracle(ex: &PeakExtractor, series: &TimeSeries, seed: u64, what: &str) {
        let input = ExtractionInput::household(series);
        let (mut rng, mut oracle_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let got = ex.extract(&input, &mut rng);
        let want = oracle::extract(ex, &input, &mut oracle_rng);
        assert_eq!(got, want, "{what}");
        // Debug prints each f64 in full, so -0.0 and 0.0 differ here.
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>(), "{what}");
    }

    #[test]
    fn extract_matches_the_oracle_on_fleet_households() {
        use flextract_sim::{simulate_household, FleetConfig, HouseholdArchetype};
        use flextract_time::{Duration, TimeRange};

        let week = TimeRange::starting_at(
            "2013-03-18".parse::<Timestamp>().unwrap(),
            Duration::weeks(1),
        )
        .unwrap();
        let extractors = [
            PeakExtractor::new(ExtractionConfig::default()),
            PeakExtractor::new(ExtractionConfig::with_share(0.2)),
            PeakExtractor::new(ExtractionConfig {
                slices_per_offer: (1, 2),
                ..ExtractionConfig::with_share(0.01)
            }),
        ];
        for fleet_seed in [1, 7, 29] {
            let configs = FleetConfig {
                households: 12,
                base_seed: fleet_seed,
                archetype_mix: vec![
                    (HouseholdArchetype::SingleResident, 0.25),
                    (HouseholdArchetype::Couple, 0.35),
                    (HouseholdArchetype::FamilyWithChildren, 0.25),
                    (HouseholdArchetype::SuburbanWithEv, 0.15),
                ],
                tariff_response: None,
                threads: 1,
            }
            .household_configs();
            for (h, cfg) in configs.iter().enumerate() {
                let market = simulate_household(cfg, week).series_at(Resolution::MIN_15);
                // The week as simulated, and cut to start at 05:00 and
                // end at 20:00, so partial days lead and trail.
                let cut = market.slice(
                    TimeRange::new(
                        "2013-03-18 05:00".parse().unwrap(),
                        "2013-03-24 20:00".parse().unwrap(),
                    )
                    .unwrap(),
                );
                for (k, ex) in extractors.iter().enumerate() {
                    for (series, shape) in [(&market, "week"), (&cut, "cut week")] {
                        assert_matches_oracle(
                            ex,
                            series,
                            fleet_seed * 1_000 + h as u64,
                            &format!("fleet {fleet_seed}, household {h}, extractor {k}, {shape}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn extract_matches_the_oracle_on_edge_days() {
        let ex = PeakExtractor::new(ExtractionConfig::default());
        let start = "2013-03-18".parse::<Timestamp>().unwrap();
        // A zero day between two peaked days, then a flat day.
        let mut values = two_peak_day().into_values();
        values.extend(vec![0.0; 96]);
        values.extend(two_peak_day().into_values());
        values.extend(vec![0.5; 96]);
        let series = TimeSeries::new(start, Resolution::MIN_15, values).unwrap();
        for seed in 0..8 {
            assert_matches_oracle(&ex, &series, seed, &format!("edge days, seed {seed}"));
        }
        // Shorter than a day: no whole day at all.
        let short = TimeSeries::constant(start, Resolution::MIN_15, 0.3, 40);
        assert_matches_oracle(&ex, &short, 1, "no whole day");
        // Hourly input.
        let hourly =
            flextract_series::resample::to_resolution(&series, Resolution::HOUR_1).unwrap();
        assert_matches_oracle(&ex, &hourly, 2, "hourly");
    }
}
