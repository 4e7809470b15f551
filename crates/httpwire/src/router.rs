//! A small path router with `:param` captures.
//!
//! Routes are matched segment-by-segment; `:name` segments capture their
//! value. The crawler-facing instance API needs exactly this much:
//! `/api/v1/instance`, `/api/v1/timelines/public`, and
//! `/users/:name/followers`.

/// Result of a successful match: the route index and captured parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteMatch {
    /// Index of the route in insertion order.
    pub route: usize,
    /// Captured `:param` values in declaration order.
    pub params: Vec<(String, String)>,
}

/// An ordered route table.
#[derive(Debug, Clone, Default)]
pub struct Router {
    routes: Vec<Vec<Segment>>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Segment {
    Literal(String),
    Param(String),
}

fn compile(pattern: &str) -> Vec<Segment> {
    pattern
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|s| {
            if let Some(name) = s.strip_prefix(':') {
                Segment::Param(name.to_string())
            } else {
                Segment::Literal(s.to_string())
            }
        })
        .collect()
}

impl Router {
    /// Empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a pattern; returns its route index.
    pub fn add(&mut self, pattern: &str) -> usize {
        self.routes.push(compile(pattern));
        self.routes.len() - 1
    }

    /// Match a concrete path against the table (first match wins).
    pub fn matches(&self, path: &str) -> Option<RouteMatch> {
        let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        'route: for (idx, route) in self.routes.iter().enumerate() {
            if route.len() != segs.len() {
                continue;
            }
            let mut params = Vec::new();
            for (pat, &actual) in route.iter().zip(&segs) {
                match pat {
                    Segment::Literal(l) if l == actual => {}
                    Segment::Literal(_) => continue 'route,
                    Segment::Param(name) => params.push((name.clone(), actual.to_string())),
                }
            }
            return Some(RouteMatch { route: idx, params });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mastodon_router() -> Router {
        let mut r = Router::new();
        r.add("/api/v1/instance");
        r.add("/api/v1/timelines/public");
        r.add("/users/:name/followers");
        r.add("/users/:name");
        r
    }

    #[test]
    fn literal_match() {
        let r = mastodon_router();
        let m = r.matches("/api/v1/instance").unwrap();
        assert_eq!(m.route, 0);
        assert!(m.params.is_empty());
    }

    #[test]
    fn param_capture() {
        let r = mastodon_router();
        let m = r.matches("/users/alice/followers").unwrap();
        assert_eq!(m.route, 2);
        assert_eq!(m.params, [("name".to_string(), "alice".to_string())]);
    }

    #[test]
    fn shorter_route_matches_after_longer() {
        let r = mastodon_router();
        let m = r.matches("/users/bob").unwrap();
        assert_eq!(m.route, 3);
        assert_eq!(m.params, [("name".to_string(), "bob".to_string())]);
    }

    #[test]
    fn no_match() {
        let r = mastodon_router();
        assert_eq!(r.matches("/api/v2/instance"), None);
        assert_eq!(r.matches("/users/a/b/c"), None);
        assert_eq!(r.matches("/"), None);
    }

    #[test]
    fn trailing_slash_tolerated() {
        let r = mastodon_router();
        assert!(r.matches("/api/v1/instance/").is_some());
    }

    #[test]
    fn first_match_wins() {
        let mut r = Router::new();
        r.add("/a/:x");
        r.add("/a/b");
        let m = r.matches("/a/b").unwrap();
        assert_eq!(m.route, 0);
        assert_eq!(m.params, [("x".to_string(), "b".to_string())]);
    }
}
