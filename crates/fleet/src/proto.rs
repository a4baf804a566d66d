//! The coordinator ↔ worker wire schema.
//!
//! Four endpoints, all over the same HTTP/1.1 subset `cardopc-serve`
//! speaks (`Content-Length` framing; workers additionally honour
//! `Connection: keep-alive`, so a dispatch lane reuses one stream for
//! every tile it sends):
//!
//! | Method & path          | Purpose                                       |
//! |------------------------|-----------------------------------------------|
//! | `POST /v1/tiles`       | correct one tile; 200 body = checkpoint line  |
//! | `POST /v1/records`     | the records held for the given input hashes   |
//! | `GET /healthz`         | heartbeat (liveness + tiles-done counter)     |
//! | `POST /admin/shutdown` | stop accepting and let the process exit 0     |
//!
//! A dispatch body is `{"spec": <work spec>, "tile": <index>}` — the
//! [`WorkSpec`] is self-contained, so a worker needs no session state and
//! any worker can serve any tile of any job. The 200 response body is the
//! runtime's own `TileRecord` JSONL line, which carries the tile input
//! hash; the coordinator recomputes that hash locally and rejects a
//! mismatched record, so a worker that somehow expanded a different
//! partition cannot corrupt the run.
//!
//! A records body is `{"hashes": ["<16 hex digits>", ...]}` — the input
//! hashes of the tiles a coordinator still wants, spelled as in the
//! checkpoint line. The 200 body holds one checkpoint line per hash the
//! worker has a record for (JSONL, sorted by tile index), so recovery
//! costs grow with the job, not with the worker's age.

use crate::spec::{reject_unknown, BadRequest, WorkSpec};
use cardopc_json::Json;

/// Serialises a tile dispatch request body.
pub fn dispatch_body(spec: &WorkSpec, tile: usize) -> String {
    Json::obj(vec![
        ("spec", spec.to_json()),
        ("tile", Json::num_usize(tile)),
    ])
    .to_string_compact()
}

/// Parses a `POST /v1/tiles` body.
///
/// # Errors
///
/// A message for malformed JSON, unknown fields, or an invalid spec;
/// workers answer 400 with it.
pub fn parse_dispatch(body: &str) -> Result<(WorkSpec, usize), BadRequest> {
    let json = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let Json::Obj(_) = &json else {
        return Err("dispatch body must be a JSON object".into());
    };
    reject_unknown(&json, &["spec", "tile"])?;
    let spec = WorkSpec::from_json(json.get("spec").ok_or("missing 'spec'")?)?;
    let tile = json
        .get("tile")
        .and_then(Json::as_usize)
        .ok_or("'tile' must be a non-negative integer")?;
    Ok((spec, tile))
}

/// Serialises a `POST /v1/records` request body for `hashes`.
pub fn records_body(hashes: &[u64]) -> String {
    let hashes = hashes
        .iter()
        .map(|h| Json::Str(format!("{h:016x}")))
        .collect();
    Json::obj(vec![("hashes", Json::Arr(hashes))]).to_string_compact()
}

/// Parses a `POST /v1/records` body into input hashes.
///
/// # Errors
///
/// A message for malformed JSON, unknown fields, or a hash that is not a
/// 16-digit hex string; workers answer 400 with it.
pub fn parse_records_request(body: &str) -> Result<Vec<u64>, BadRequest> {
    let json = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let Json::Obj(_) = &json else {
        return Err("records body must be a JSON object".into());
    };
    reject_unknown(&json, &["hashes"])?;
    let Some(Json::Arr(hashes)) = json.get("hashes") else {
        return Err("'hashes' must be an array".into());
    };
    hashes
        .iter()
        .map(|h| {
            h.as_str()
                .filter(|s| s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()))
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| "each hash must be 16 hex digits".into())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DesignSpec;
    use cardopc_layout::DesignKind;
    use cardopc_opc::OpcConfig;
    use cardopc_runtime::TilingConfig;

    fn spec() -> WorkSpec {
        WorkSpec {
            design: DesignSpec::generated(DesignKind::Gcd, 1, Some(2048.0)),
            tiling: TilingConfig {
                tile_size: 1024.0,
                halo: 512.0,
            },
            opc: OpcConfig::large_scale(),
        }
    }

    #[test]
    fn dispatch_roundtrips() {
        let body = dispatch_body(&spec(), 3);
        let (back, tile) = parse_dispatch(&body).unwrap();
        assert_eq!(back, spec());
        assert_eq!(tile, 3);
    }

    #[test]
    fn dispatch_rejections() {
        let good = dispatch_body(&spec(), 0);
        for bad in [
            "not json",
            "[]",
            r#"{"tile": 0}"#,
            r#"{"spec": {}, "tile": 0}"#,
            &good.replace("\"tile\":0", "\"tile\":-1"),
            &good.replace("\"tile\":0", "\"tile\":0,\"extra\":1"),
        ] {
            assert!(parse_dispatch(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn records_request_roundtrips_and_rejects_malformed_bodies() {
        let hashes = [0, 0xdead_beef_cafe_f00d, u64::MAX];
        assert_eq!(
            parse_records_request(&records_body(&hashes)).unwrap(),
            hashes
        );
        assert_eq!(parse_records_request(&records_body(&[])).unwrap(), vec![]);
        for bad in [
            "not json",
            "[]",
            "{}",
            r#"{"hashes": "00"}"#,
            r#"{"hashes": [1]}"#,
            r#"{"hashes": ["dead"]}"#,
            r#"{"hashes": ["zzzzzzzzzzzzzzzz"]}"#,
            r#"{"hashes": ["+eadbeefcafef00d"]}"#,
            r#"{"hashes": [], "extra": 1}"#,
        ] {
            assert!(parse_records_request(bad).is_err(), "accepted: {bad}");
        }
    }
}
