#include "delaunay/triangulation.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "geom/predicates.hpp"

namespace hybrid::delaunay {

namespace {

using geom::Vec2;
using State = detail::BuildState;
using WorkTri = State::WorkTri;
using BEdge = State::BEdge;

/// The Bowyer–Watson builder over a BuildState it does not own.
class Builder {
 public:
  explicit Builder(State& s) : s_(s) {}

  /// Resets the state to the super-triangle of `box`, whose corners are
  /// appended to the input points already in s_.pts. Scratch vectors keep
  /// their capacity; stale entries are cleared.
  void start(const geom::BBox& box) {
    // Super-triangle far outside the data range. Exact predicates keep the
    // construction consistent; a final legalization pass (below) restores
    // the Delaunay property among finite triangles near the boundary.
    const std::size_t n = s_.pts.size();
    const double span = std::max({box.width(), box.height(), 1.0});
    const Vec2 c = box.center();
    const double m = span * 1e4;
    s_.superBase = static_cast<int>(n);
    s_.pts.push_back({c.x - 2.0 * m, c.y - m});
    s_.pts.push_back({c.x + 2.0 * m, c.y - m});
    s_.pts.push_back({c.x, c.y + 2.0 * m});
    s_.tris.clear();
    s_.tris.push_back({{s_.superBase, s_.superBase + 1, s_.superBase + 2}, {-1, -1, -1}, true});
    s_.lastAlive = 0;
    // An insert fans one triangle per cavity boundary edge (about 6 on
    // average) and dead triangles stay in place, so reserve ~8 per point.
    s_.tris.reserve(8 * n + 16);
    s_.badStamp.clear();
    s_.badStamp.reserve(s_.tris.capacity());
    s_.startOf.assign(s_.pts.size(), {0, -1});
    s_.endOf.assign(s_.pts.size(), {0, -1});
  }

  /// Appends a point after the super-triangle corners (resume) and
  /// returns its index.
  int addPoint(Vec2 p) {
    s_.pts.push_back(p);
    s_.startOf.push_back({0, -1});
    s_.endOf.push_back({0, -1});
    return static_cast<int>(s_.pts.size()) - 1;
  }

  void insert(int pi) {
    const Vec2 p = s_.pts[static_cast<std::size_t>(pi)];
    const int containing = locate(s_.lastAlive, p);
    // Each insert gets a fresh stamp, so the scratch arrays below never
    // need clearing: an entry counts only when it carries this stamp.
    const int stamp = pi + 1;

    // Grow the cavity of triangles whose circumcircle strictly contains p.
    s_.bad.clear();
    s_.stack.assign(1, containing);
    s_.badStamp.resize(s_.tris.size(), 0);
    s_.badStamp[static_cast<std::size_t>(containing)] = stamp;
    const auto inBad = [&](int t) { return s_.badStamp[static_cast<std::size_t>(t)] == stamp; };
    while (!s_.stack.empty()) {
      const int t = s_.stack.back();
      s_.stack.pop_back();
      s_.bad.push_back(t);
      for (int i = 0; i < 3; ++i) {
        const int nb = s_.tris[static_cast<std::size_t>(t)].adj[static_cast<std::size_t>(i)];
        if (nb < 0 || inBad(nb)) continue;
        const WorkTri& wn = s_.tris[static_cast<std::size_t>(nb)];
        if (geom::inCircle(s_.pts[static_cast<std::size_t>(wn.v[0])],
                           s_.pts[static_cast<std::size_t>(wn.v[1])],
                           s_.pts[static_cast<std::size_t>(wn.v[2])], p) > 0) {
          s_.badStamp[static_cast<std::size_t>(nb)] = stamp;
          s_.stack.push_back(nb);
        }
      }
    }

    // Boundary of the cavity: directed edges (a, b) with the cavity on the
    // left, plus the outside triangle across each.
    s_.boundary.clear();
    for (int t : s_.bad) {
      const WorkTri& wt = s_.tris[static_cast<std::size_t>(t)];
      for (int i = 0; i < 3; ++i) {
        const int nb = wt.adj[static_cast<std::size_t>(i)];
        if (nb >= 0 && inBad(nb)) continue;
        s_.boundary.push_back({wt.v[static_cast<std::size_t>((i + 1) % 3)],
                               wt.v[static_cast<std::size_t>((i + 2) % 3)], nb});
      }
    }
    for (int t : s_.bad) {
      WorkTri& wt = s_.tris[static_cast<std::size_t>(t)];
      wt.alive = false;
      wt.edited = true;
    }

    // Fan new triangles (a, b, p) around p; they inherit outside adjacency
    // across (a, b) and link to each other across the p-incident edges:
    // edge (b, p) of the triangle over (a, b) borders the fan triangle whose
    // boundary edge starts at b, and edge (p, a) the one whose boundary edge
    // ends at a. The cavity boundary is a simple cycle, so each vertex
    // starts and ends one boundary edge; should a degenerate cavity repeat a
    // vertex, only the last fan triangle to claim it is linked.
    const int firstNew = static_cast<int>(s_.tris.size());
    for (const BEdge& e : s_.boundary) {
      WorkTri nt;
      nt.v = {e.a, e.b, pi};
      nt.adj = {-1, -1, e.outside};  // edge 2 = (a, b)
      const int ti = static_cast<int>(s_.tris.size());
      s_.tris.push_back(nt);
      if (e.outside >= 0) {
        WorkTri& wo = s_.tris[static_cast<std::size_t>(e.outside)];
        for (int i = 0; i < 3; ++i) {
          if (wo.v[static_cast<std::size_t>((i + 1) % 3)] == e.b &&
              wo.v[static_cast<std::size_t>((i + 2) % 3)] == e.a) {
            wo.adj[static_cast<std::size_t>(i)] = ti;
            wo.edited = true;
          }
        }
      }
      s_.startOf[static_cast<std::size_t>(e.a)] = {stamp, ti};
      s_.endOf[static_cast<std::size_t>(e.b)] = {stamp, ti};
    }
    for (int ti = firstNew; ti < static_cast<int>(s_.tris.size()); ++ti) {
      WorkTri& nt = s_.tris[static_cast<std::size_t>(ti)];
      const auto& startA = s_.startOf[static_cast<std::size_t>(nt.v[0])];
      const auto& endA = s_.endOf[static_cast<std::size_t>(nt.v[0])];
      const auto& startB = s_.startOf[static_cast<std::size_t>(nt.v[1])];
      const auto& endB = s_.endOf[static_cast<std::size_t>(nt.v[1])];
      if (endB[1] == ti && startB[0] == stamp) nt.adj[0] = startB[1];  // edge 0 = (b, p)
      if (startA[1] == ti && endA[0] == stamp) nt.adj[1] = endA[1];    // edge 1 = (p, a)
    }
    s_.lastAlive = firstNew;
  }

  // Lawson flips over finite-finite edges until locally Delaunay. This
  // repairs any boundary slivers introduced by the finite super-triangle.
  // `reuse` (read) and `record` (write) are per (triangle, edge) verdict
  // arrays over a snapshot's triangles (see DelaunayPrefix); either may be
  // null.
  void legalizeFinite(const signed char* reuse, signed char* record) {
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 64) {
      changed = false;
      for (std::size_t t = 0; t < s_.tris.size(); ++t) {
        if (!s_.tris[t].alive) continue;
        for (int i = 0; i < 3; ++i) {
          if (tryFlip(static_cast<int>(t), i, reuse, record)) {
            changed = true;
            break;
          }
        }
      }
    }
  }

  /// Writes the finite triangles into `out`: drops dead triangles and
  /// those touching the super-triangle, remaps adj, and relabels points
  /// inserted after the super corners down by 3.
  void finish(std::vector<Triangle>& out, std::vector<int>& remap) const {
    remap.assign(s_.tris.size(), -1);
    out.clear();
    const int lastSuper = s_.superBase + 2;
    for (std::size_t t = 0; t < s_.tris.size(); ++t) {
      const WorkTri& wt = s_.tris[t];
      if (!wt.alive || touchesSuper(wt)) continue;
      remap[t] = static_cast<int>(out.size());
      Triangle tri;
      for (int i = 0; i < 3; ++i) {
        const int v = wt.v[static_cast<std::size_t>(i)];
        tri.v[static_cast<std::size_t>(i)] = v > lastSuper ? v - 3 : v;
      }
      out.push_back(tri);
    }
    for (std::size_t t = 0; t < s_.tris.size(); ++t) {
      if (remap[t] < 0) continue;
      for (int i = 0; i < 3; ++i) {
        const int a = s_.tris[t].adj[static_cast<std::size_t>(i)];
        out[static_cast<std::size_t>(remap[t])].adj[static_cast<std::size_t>(i)] =
            (a >= 0 && remap[static_cast<std::size_t>(a)] >= 0)
                ? remap[static_cast<std::size_t>(a)]
                : -1;
      }
    }
  }

 private:
  bool isSuper(int v) const { return v >= s_.superBase && v < s_.superBase + 3; }
  bool touchesSuper(const WorkTri& t) const {
    return isSuper(t.v[0]) || isSuper(t.v[1]) || isSuper(t.v[2]);
  }

  // Walk from `start` to a triangle containing p (possibly on its boundary).
  int locate(int start, Vec2 p) const {
    int t = start;
    for (std::size_t guard = 0; guard < 4 * s_.tris.size() + 16; ++guard) {
      const WorkTri& wt = s_.tris[static_cast<std::size_t>(t)];
      bool moved = false;
      for (int i = 0; i < 3; ++i) {
        const Vec2 a =
            s_.pts[static_cast<std::size_t>(wt.v[static_cast<std::size_t>((i + 1) % 3)])];
        const Vec2 b =
            s_.pts[static_cast<std::size_t>(wt.v[static_cast<std::size_t>((i + 2) % 3)])];
        if (geom::orient(a, b, p) < 0) {
          const int next = wt.adj[static_cast<std::size_t>(i)];
          if (next >= 0) {
            t = next;
            moved = true;
            break;
          }
        }
      }
      if (!moved) return t;
    }
    throw std::runtime_error("Delaunay locate failed to converge (duplicate points?)");
  }

  // Flips edge i of triangle t if the opposite vertex of the neighbor lies
  // strictly inside t's circumcircle (finite vertices only). The verdict
  // depends only on t and its neighbor, so while both are unedited it is
  // the snapshot's verdict: read from `reuse` when known, else written to
  // `record`.
  bool tryFlip(int t, int i, const signed char* reuse, signed char* record) {
    WorkTri& wt = s_.tris[static_cast<std::size_t>(t)];
    const int nb = wt.adj[static_cast<std::size_t>(i)];
    if (nb < 0) return false;
    WorkTri& wn = s_.tris[static_cast<std::size_t>(nb)];
    if (touchesSuper(wt) || touchesSuper(wn)) return false;

    const int a = wt.v[static_cast<std::size_t>(i)];
    const int b = wt.v[static_cast<std::size_t>((i + 1) % 3)];
    const int c = wt.v[static_cast<std::size_t>((i + 2) % 3)];
    // Neighbor's vertex not on the shared edge (b, c).
    int d = -1;
    for (int k = 0; k < 3; ++k) {
      if (wn.v[static_cast<std::size_t>(k)] != b && wn.v[static_cast<std::size_t>(k)] != c) {
        d = wn.v[static_cast<std::size_t>(k)];
      }
    }
    if (d < 0) return false;
    const bool pristine = !wt.edited && !wn.edited;
    const std::size_t slot = 3 * static_cast<std::size_t>(t) + static_cast<std::size_t>(i);
    bool flip;
    if (pristine && reuse != nullptr && reuse[slot] >= 0) {
      flip = reuse[slot] > 0;
    } else {
      flip = geom::inCircle(s_.pts[static_cast<std::size_t>(a)],
                            s_.pts[static_cast<std::size_t>(b)],
                            s_.pts[static_cast<std::size_t>(c)],
                            s_.pts[static_cast<std::size_t>(d)]) > 0;
      if (pristine && record != nullptr) record[slot] = flip ? 1 : 0;
    }
    if (!flip) return false;
    // Replace triangles (a,b,c)+(d,c,b) with (a,b,d)+(a,d,c).
    const int tBC = nb;
    const int nAB = wt.adj[static_cast<std::size_t>((i + 2) % 3)];
    const int nCA = wt.adj[static_cast<std::size_t>((i + 1) % 3)];
    // Identify neighbor triangles of wn across edges (d,b) and (c,d).
    int nbDB = -1;
    int nbCD = -1;
    for (int k = 0; k < 3; ++k) {
      const int e1 = wn.v[static_cast<std::size_t>((k + 1) % 3)];
      const int e2 = wn.v[static_cast<std::size_t>((k + 2) % 3)];
      if ((e1 == d && e2 == b) || (e1 == b && e2 == d)) nbDB = wn.adj[static_cast<std::size_t>(k)];
      if ((e1 == c && e2 == d) || (e1 == d && e2 == c)) nbCD = wn.adj[static_cast<std::size_t>(k)];
    }

    wt.v = {a, b, d};
    wn.v = {a, d, c};
    // wt edges: 0:(b,d) -> nbDB, 1:(d,a) -> wn, 2:(a,b) -> nAB
    wt.adj = {nbDB, tBC, nAB};
    // wn edges: 0:(d,c) -> nbCD, 1:(c,a) -> nCA, 2:(a,d) -> t
    wn.adj = {nbCD, nCA, t};
    wt.edited = true;
    wn.edited = true;
    fixBackPointer(nbDB, tBC, t);
    fixBackPointer(nCA, t, tBC);
    s_.lastAlive = t;
    return true;
  }

  void fixBackPointer(int tri, int oldNb, int newNb) {
    if (tri < 0) return;
    WorkTri& wt = s_.tris[static_cast<std::size_t>(tri)];
    wt.edited = true;
    for (auto& a : wt.adj) {
      if (a == oldNb) a = newNb;
    }
  }

  State& s_;
};

/// Triangulates the points already in `s.pts` from empty into `out`.
void buildFromEmpty(State& s, std::vector<Triangle>& out, std::vector<int>& remap) {
  out.clear();
  const std::size_t n = s.pts.size();
  if (n < 3) return;
  Builder b(s);
  b.start(geom::BBox::of(s.pts));
  for (int i = 0; i < static_cast<int>(n); ++i) b.insert(i);
  b.legalizeFinite(nullptr, nullptr);
  b.finish(out, remap);
}

/// All edges of `tris` as (u, v) pairs with u < v, sorted and unique, for
/// a triangulation over `numPoints` points. `offsets` is scratch; `out` is
/// overwritten. Both keep their capacity across calls.
void collectEdges(const std::vector<Triangle>& tris, std::size_t numPoints,
                  std::vector<int>& offsets, std::vector<std::pair<int, int>>& out) {
  // Counting sort on u, then sort and dedup each (small) bucket on v.
  offsets.assign(numPoints + 1, 0);
  for (const Triangle& t : tris) {
    for (int i = 0; i < 3; ++i) {
      const int u = std::min(t.v[static_cast<std::size_t>(i)],
                             t.v[static_cast<std::size_t>((i + 1) % 3)]);
      ++offsets[static_cast<std::size_t>(u) + 1];
    }
  }
  for (std::size_t u = 0; u < numPoints; ++u) offsets[u + 1] += offsets[u];
  out.resize(static_cast<std::size_t>(offsets[numPoints]));
  for (const Triangle& t : tris) {
    for (int i = 0; i < 3; ++i) {
      int u = t.v[static_cast<std::size_t>(i)];
      int v = t.v[static_cast<std::size_t>((i + 1) % 3)];
      if (u > v) std::swap(u, v);
      out[static_cast<std::size_t>(offsets[static_cast<std::size_t>(u)]++)] = {u, v};
    }
  }
  // offsets[u] now holds the end of bucket u, which is where u + 1 begins.
  std::size_t kept = 0;
  std::size_t begin = 0;
  for (std::size_t u = 0; u < numPoints; ++u) {
    const auto end = static_cast<std::size_t>(offsets[u]);
    const auto first = out.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = out.begin() + static_cast<std::ptrdiff_t>(end);
    std::sort(first, last);
    const auto uniqueEnd = std::unique(first, last);
    for (auto it = first; it != uniqueEnd; ++it) out[kept++] = *it;
    begin = end;
  }
  out.resize(kept);
}

}  // namespace

DelaunayTriangulation::DelaunayTriangulation(const std::vector<geom::Vec2>& points)
    : pts_(points) {
  if (points.size() < 3) return;
  State s;
  s.pts = points;
  std::vector<int> remap;
  buildFromEmpty(s, tris_, remap);
}

std::vector<std::pair<int, int>> DelaunayTriangulation::edges() const {
  std::vector<int> offsets;
  std::vector<std::pair<int, int>> all;
  collectEdges(tris_, pts_.size(), offsets, all);
  return all;
}

graph::GeometricGraph DelaunayTriangulation::toGraph() const {
  graph::GeometricGraph g(pts_);
  for (const auto& [u, v] : edges()) g.addEdge(u, v);
  return g;
}

bool DelaunayTriangulation::hasEdge(int u, int v) const {
  for (const Triangle& t : tris_) {
    for (int i = 0; i < 3; ++i) {
      const int a = t.v[static_cast<std::size_t>(i)];
      const int b = t.v[static_cast<std::size_t>((i + 1) % 3)];
      if ((a == u && b == v) || (a == v && b == u)) return true;
    }
  }
  return false;
}

DelaunayPrefix::DelaunayPrefix(const std::vector<geom::Vec2>& sites)
    : sites_(sites), box_(geom::BBox::of(sites)), resumable_(sites.size() >= 3) {
  if (!resumable_) return;
  // The snapshot: the sites inserted into the super-triangle of their box,
  // before legalization, with every triangle marked unedited.
  snapshot_.pts = sites;
  Builder snap(snapshot_);
  snap.start(box_);
  for (int i = 0; i < static_cast<int>(sites.size()); ++i) snap.insert(i);
  for (auto& t : snapshot_.tris) t.edited = false;

  // DT(sites) is the snapshot legalized; the pass records the verdicts.
  State copy = snapshot_;
  verdicts_.assign(3 * snapshot_.tris.size(), -1);
  Builder b(copy);
  b.legalizeFinite(nullptr, verdicts_.data());
  std::vector<int> scratch;
  b.finish(siteTris_, scratch);
  collectEdges(siteTris_, sites_.size(), scratch, siteEdges_);
}

bool DelaunayPrefix::triangulate(std::span<const geom::Vec2> extras,
                                 TriangulationWorkspace& ws) const {
  const std::size_t n = sites_.size() + extras.size();
  bool resume = resumable_;
  for (const geom::Vec2 p : extras) resume = resume && box_.contains(p);
  if (resume) {
    ws.state_ = snapshot_;
    Builder b(ws.state_);
    for (const geom::Vec2 p : extras) b.insert(b.addPoint(p));
    b.legalizeFinite(verdicts_.data(), nullptr);
    b.finish(ws.tris_, ws.remap_);
  } else {
    ws.state_.pts.assign(sites_.begin(), sites_.end());
    ws.state_.pts.insert(ws.state_.pts.end(), extras.begin(), extras.end());
    buildFromEmpty(ws.state_, ws.tris_, ws.remap_);
  }
  collectEdges(ws.tris_, n, ws.edgeOffsets_, ws.edges_);
  return resume;
}

}  // namespace hybrid::delaunay
