//! JSON-RPC 2.0 request/response framing.

use std::fmt;

use crate::json::Value;

/// Standard JSON-RPC 2.0 error codes, plus an application range.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RpcErrorCode {
    /// -32700: invalid JSON.
    ParseError,
    /// -32600: request object invalid.
    InvalidRequest,
    /// -32601: method does not exist.
    MethodNotFound,
    /// -32602: invalid method parameters.
    InvalidParams,
    /// -32603: internal server error.
    InternalError,
    /// Application-defined code (the blockchain adapters use these for
    /// chain-side failures such as mempool-full or unknown-shard).
    Application(i64),
}

impl RpcErrorCode {
    /// The numeric wire code.
    pub fn code(&self) -> i64 {
        match self {
            RpcErrorCode::ParseError => -32700,
            RpcErrorCode::InvalidRequest => -32600,
            RpcErrorCode::MethodNotFound => -32601,
            RpcErrorCode::InvalidParams => -32602,
            RpcErrorCode::InternalError => -32603,
            RpcErrorCode::Application(c) => *c,
        }
    }

    /// Reconstructs from a numeric wire code.
    pub(crate) fn from_code(code: i64) -> Self {
        match code {
            -32700 => RpcErrorCode::ParseError,
            -32600 => RpcErrorCode::InvalidRequest,
            -32601 => RpcErrorCode::MethodNotFound,
            -32602 => RpcErrorCode::InvalidParams,
            -32603 => RpcErrorCode::InternalError,
            c => RpcErrorCode::Application(c),
        }
    }
}

/// A JSON-RPC error object.
#[derive(Clone, Debug, PartialEq)]
pub struct RpcError {
    /// The error code.
    pub code: RpcErrorCode,
    /// Short description.
    pub message: String,
    /// Optional structured details.
    pub data: Option<Value>,
}

impl RpcError {
    /// Convenience constructor without data.
    pub(crate) fn new(code: RpcErrorCode, message: impl Into<String>) -> Self {
        RpcError {
            code,
            message: message.into(),
            data: None,
        }
    }

    /// A `MethodNotFound` error for `method`.
    pub(crate) fn method_not_found(method: &str) -> Self {
        Self::new(
            RpcErrorCode::MethodNotFound,
            format!("method not found: {method}"),
        )
    }

    /// An `InvalidParams` error.
    pub fn invalid_params(detail: impl Into<String>) -> Self {
        Self::new(RpcErrorCode::InvalidParams, detail)
    }

    /// An application error with the given code.
    pub fn application(code: i64, message: impl Into<String>) -> Self {
        Self::new(RpcErrorCode::Application(code), message)
    }

    /// The error object as it travels: `code`, `message` and, when set,
    /// `data`.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("code".to_owned(), Value::from(self.code.code())),
            ("message".to_owned(), Value::from(self.message.as_str())),
        ];
        fields.extend(self.data.clone().map(|data| ("data".to_owned(), data)));
        Value::Object(fields)
    }

    /// Reads an error object; `None` without an integer `code`. A missing
    /// `message` reads as empty.
    pub fn from_value(v: &Value) -> Option<Self> {
        Some(RpcError {
            code: RpcErrorCode::from_code(v.get("code").and_then(Value::as_i64)?),
            message: v
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned(),
            data: v.get("data").cloned(),
        })
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RPC error {}: {}", self.code.code(), self.message)
    }
}

impl std::error::Error for RpcError {}

/// A JSON-RPC 2.0 request.
#[derive(Clone, Debug, PartialEq)]
pub struct RpcRequest {
    /// Request id (the transport fills this in).
    pub id: u64,
    /// Method name.
    pub method: String,
    /// Parameters value (commonly an object or array).
    pub params: Value,
}

impl RpcRequest {
    /// Serialises to a JSON-RPC 2.0 wire object.
    fn to_value(&self) -> Value {
        Value::object([
            ("jsonrpc", Value::from("2.0")),
            ("id", Value::from(self.id)),
            ("method", Value::from(self.method.clone())),
            ("params", self.params.clone()),
        ])
    }

    /// Parses a wire object, validating the envelope.
    fn from_value(v: &Value) -> Result<Self, RpcError> {
        if v.get("jsonrpc").and_then(Value::as_str) != Some("2.0") {
            return Err(RpcError::new(
                RpcErrorCode::InvalidRequest,
                "missing or wrong jsonrpc version",
            ));
        }
        let id = v
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| RpcError::new(RpcErrorCode::InvalidRequest, "missing id"))?;
        let method = v
            .get("method")
            .and_then(Value::as_str)
            .ok_or_else(|| RpcError::new(RpcErrorCode::InvalidRequest, "missing method"))?
            .to_owned();
        let params = v.get("params").cloned().unwrap_or(Value::Null);
        Ok(RpcRequest { id, method, params })
    }

    /// Serialises to JSON text, appending to a reusable buffer.
    pub fn to_json_into(&self, out: &mut String) {
        self.to_value().to_json_into(out);
    }

    /// Parses from raw JSON bytes (e.g. a reused receive buffer).
    pub(crate) fn parse_bytes(bytes: &[u8]) -> Result<Self, RpcError> {
        let v = Value::parse_bytes(bytes)
            .map_err(|e| RpcError::new(RpcErrorCode::ParseError, e.to_string()))?;
        Self::from_value(&v)
    }
}

/// A JSON-RPC 2.0 response.
#[derive(Clone, Debug, PartialEq)]
pub struct RpcResponse {
    /// Echoed request id.
    pub id: u64,
    /// Either a result or an error.
    pub outcome: Result<Value, RpcError>,
}

impl RpcResponse {
    /// A success response.
    pub(crate) fn success(id: u64, result: Value) -> Self {
        RpcResponse {
            id,
            outcome: Ok(result),
        }
    }

    /// An error response.
    pub fn error(id: u64, error: RpcError) -> Self {
        RpcResponse {
            id,
            outcome: Err(error),
        }
    }

    /// Serialises to a wire object.
    fn to_value(&self) -> Value {
        match &self.outcome {
            Ok(result) => Value::object([
                ("jsonrpc", Value::from("2.0")),
                ("id", Value::from(self.id)),
                ("result", result.clone()),
            ]),
            Err(err) => Value::object([
                ("jsonrpc", Value::from("2.0")),
                ("id", Value::from(self.id)),
                ("error", err.to_value()),
            ]),
        }
    }

    /// Parses a wire object, validating the envelope.
    fn from_value(v: &Value) -> Result<Self, RpcError> {
        if v.get("jsonrpc").and_then(Value::as_str) != Some("2.0") {
            return Err(RpcError::new(
                RpcErrorCode::InvalidRequest,
                "missing or wrong jsonrpc version",
            ));
        }
        let id = v
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| RpcError::new(RpcErrorCode::InvalidRequest, "missing id"))?;
        if let Some(err) = v.get("error") {
            let err = RpcError::from_value(err)
                .ok_or_else(|| RpcError::new(RpcErrorCode::InvalidRequest, "missing error code"))?;
            return Ok(RpcResponse::error(id, err));
        }
        let result = v
            .get("result")
            .cloned()
            .ok_or_else(|| RpcError::new(RpcErrorCode::InvalidRequest, "missing result"))?;
        Ok(RpcResponse::success(id, result))
    }

    /// Serialises to JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Serialises to JSON text, appending to a reusable buffer.
    pub(crate) fn to_json_into(&self, out: &mut String) {
        self.to_value().to_json_into(out);
    }

    /// Parses from JSON text.
    pub fn parse(text: &str) -> Result<Self, RpcError> {
        Self::parse_bytes(text.as_bytes())
    }

    /// Parses from raw JSON bytes (e.g. a reused receive buffer).
    pub fn parse_bytes(bytes: &[u8]) -> Result<Self, RpcError> {
        let v = Value::parse_bytes(bytes)
            .map_err(|e| RpcError::new(RpcErrorCode::ParseError, e.to_string()))?;
        Self::from_value(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RpcRequest {
        /// Parses from JSON text.
        fn parse(text: &str) -> Result<Self, RpcError> {
            Self::parse_bytes(text.as_bytes())
        }

        /// Serialises to JSON text.
        fn to_json(&self) -> String {
            self.to_value().to_json()
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = RpcRequest {
            id: 7,
            method: "send_transaction".to_owned(),
            params: Value::object([("payload", Value::from("abc"))]),
        };
        let parsed = RpcRequest::parse(&req.to_json()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn response_success_roundtrip() {
        let resp = RpcResponse::success(3, Value::from(vec![1i64, 2, 3]));
        let parsed = RpcResponse::parse(&resp.to_json()).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn response_error_roundtrip() {
        let resp = RpcResponse::error(
            9,
            RpcError {
                code: RpcErrorCode::Application(-1001),
                message: "mempool full".to_owned(),
                data: Some(Value::from(42)),
            },
        );
        let parsed = RpcResponse::parse(&resp.to_json()).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn request_rejects_missing_fields() {
        assert!(RpcRequest::parse(r#"{"id":1,"method":"x"}"#).is_err()); // no version
        assert!(RpcRequest::parse(r#"{"jsonrpc":"2.0","method":"x"}"#).is_err()); // no id
        assert!(RpcRequest::parse(r#"{"jsonrpc":"2.0","id":1}"#).is_err()); // no method
        assert!(RpcRequest::parse("not json").is_err());
    }

    #[test]
    fn response_requires_result_or_error() {
        assert!(RpcResponse::parse(r#"{"jsonrpc":"2.0","id":1}"#).is_err());
    }

    #[test]
    fn error_codes_map_both_ways() {
        for code in [
            RpcErrorCode::ParseError,
            RpcErrorCode::InvalidRequest,
            RpcErrorCode::MethodNotFound,
            RpcErrorCode::InvalidParams,
            RpcErrorCode::InternalError,
            RpcErrorCode::Application(-1234),
        ] {
            assert_eq!(RpcErrorCode::from_code(code.code()), code);
        }
    }

    #[test]
    fn params_default_to_null() {
        let req = RpcRequest::parse(r#"{"jsonrpc":"2.0","id":1,"method":"ping"}"#).unwrap();
        assert!(req.params.is_null());
    }

    #[test]
    fn display_formats() {
        let e = RpcError::method_not_found("foo");
        assert_eq!(e.to_string(), "RPC error -32601: method not found: foo");
    }
}
