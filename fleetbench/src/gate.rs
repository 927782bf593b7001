//! The correctness gate every repetition passes through.
//!
//! Simulated losses (`lost`, `churn_orphans`) are outcomes of the
//! workload, not failures; a failure is a result that breaks a
//! conservation law or disagrees with its reference digest.

use fleet::{fnv1a, FleetConfig, FleetMetrics, FleetReport, LiveGrowth};

/// What a run's digest must equal: the pinned golden where one exists,
/// else the digest of a reference run in another execution mode.
#[derive(Debug, Clone)]
pub struct Expected {
    pub digest: String,
    /// Where the expected digest came from, for failure messages.
    pub source: &'static str,
}

/// The conservation laws of one merged result; `None` when they hold.
pub fn conservation(cfg: &FleetConfig, m: &FleetMetrics) -> Option<String> {
    let delivered = m.t2a_micros.count();
    if delivered + m.lost.get() != m.activations.get() {
        return Some(format!(
            "t2a count {delivered} + lost {} != activations {}",
            m.lost.get(),
            m.activations.get()
        ));
    }
    if m.users.get() != cfg.users || m.cells.get() != cfg.users.div_ceil(cfg.cell_users) {
        return Some(format!(
            "ran {} users in {} cells, expected {} users",
            m.users.get(),
            m.cells.get(),
            cfg.users
        ));
    }
    if cfg.attribution {
        let a = &m.attribution;
        if a.total.snapshot() != m.t2a_micros.snapshot() {
            return Some("attribution total differs from t2a".into());
        }
        let stage_sum: u64 = a.stages().iter().map(|(_, h)| h.sum()).sum();
        if stage_sum != a.total.sum() {
            return Some(format!(
                "attribution stage sums {stage_sum} != t2a sum {}",
                a.total.sum()
            ));
        }
        if let Some((name, _)) = a
            .stages()
            .iter()
            .find(|(_, h)| h.count() != a.total.count())
        {
            return Some(format!("attribution stage {name} missed samples"));
        }
    }
    None
}

/// Digest of merged metrics, as `FleetReport::digest` computes it.
pub fn digest_of(m: &FleetMetrics) -> String {
    format!("{:016x}", fnv1a(m.to_json().as_bytes()))
}

/// Check one report: conservation plus the digest.
pub fn check_report(
    cfg: &FleetConfig,
    report: &FleetReport,
    expected: &Expected,
) -> Option<String> {
    if let Some(why) = conservation(cfg, &report.merged) {
        return Some(why);
    }
    let got = report.digest();
    (got != expected.digest)
        .then(|| format!("digest {got} != {} ({})", expected.digest, expected.source))
}

/// FNV-1a over the growth table's rows and page count.
pub fn growth_fingerprint(g: &LiveGrowth) -> String {
    let mut text = format!("pages {}\n", g.pages_fetched);
    for r in &g.rows {
        text.push_str(&format!(
            "{} {} {} {} {}\n",
            r.week, r.date, r.services, r.applets, r.adds
        ));
    }
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// Check a growth table: it must exist, never shrink week over week, and
/// match its expected fingerprint.
pub fn check_growth(growth: Option<&LiveGrowth>, expected: &str) -> Option<String> {
    let Some(g) = growth else {
        return Some("churn run produced no growth table".into());
    };
    if g.rows.is_empty() || g.pages_fetched == 0 {
        return Some("growth table is empty".into());
    }
    if g.rows
        .windows(2)
        .any(|w| w[1].services < w[0].services || w[1].applets < w[0].applets)
    {
        return Some("growth table shrinks week over week".into());
    }
    let got = growth_fingerprint(g);
    (got != expected).then(|| format!("growth fingerprint {got} != {expected}"))
}
