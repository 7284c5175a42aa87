//! A reader for the service's `/metrics` text exposition.

use std::collections::BTreeMap;

/// One scrape: series (name plus label set, exactly as exposed) → value.
#[derive(Debug, Default, Clone)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("metrics line without a value: {line:?}"))?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("metrics value is not a number: {line:?}"))?;
            series.insert(name.to_string(), value);
        }
        Ok(Scrape(series))
    }

    /// A series' value; absent series read 0 (counters start at zero).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Values of every series of metric `name`, keyed by their label set.
    pub fn family(&self, name: &str) -> BTreeMap<String, f64> {
        let prefix = format!("{name}{{");
        self.0
            .iter()
            .filter_map(|(k, v)| {
                k.strip_prefix(&prefix)
                    .map(|labels| (labels.trim_end_matches('}').to_string(), *v))
            })
            .collect()
    }

    /// `after − before` for one series.
    pub fn delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
        after.get(series) - before.get(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = "\
# HELP dls_serve_requests_total Requests handled, by endpoint and status.
# TYPE dls_serve_requests_total counter
dls_serve_requests_total{endpoint=\"/plan\",status=\"200\"} 41
dls_serve_requests_total{endpoint=\"/simulate\",status=\"200\"} 7
dls_serve_request_seconds_sum{endpoint=\"/plan\"} 0.0123
dls_serve_plan_cache_hit_ratio 0.75
dls_serve_shard_requests_total{shard=\"0\"} 3
dls_serve_shard_requests_total{shard=\"1\"} 4
";

    #[test]
    fn parses_hand_written_exposition() {
        let s = Scrape::parse(FIXTURE).unwrap();
        assert_eq!(
            s.get("dls_serve_requests_total{endpoint=\"/plan\",status=\"200\"}"),
            41.0
        );
        assert_eq!(
            s.get("dls_serve_request_seconds_sum{endpoint=\"/plan\"}"),
            0.0123
        );
        assert_eq!(s.get("dls_serve_plan_cache_hit_ratio"), 0.75);
        assert_eq!(s.get("dls_serve_absent_total"), 0.0);
        let shards = s.family("dls_serve_shard_requests_total");
        assert_eq!(shards.len(), 2);
        assert_eq!(shards["shard=\"1\""], 4.0);
        let requests = s.family("dls_serve_requests_total");
        assert_eq!(requests["endpoint=\"/simulate\",status=\"200\""], 7.0);
    }

    #[test]
    fn deltas_and_malformed_lines() {
        let before = Scrape::parse("a_total 3\n").unwrap();
        let after = Scrape::parse("a_total 10\nb_total 2\n").unwrap();
        assert_eq!(Scrape::delta(&before, &after, "a_total"), 7.0);
        assert_eq!(Scrape::delta(&before, &after, "b_total"), 2.0);
        assert!(Scrape::parse("no_value\n").is_err());
        assert!(Scrape::parse("a_total x\n").is_err());
    }
}
