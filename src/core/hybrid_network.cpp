#include "core/hybrid_network.hpp"

#include "geom/segment.hpp"
#include "graph/shortest_path.hpp"
#include "obs/span.hpp"

namespace hybrid::core {

HybridNetwork::HybridNetwork(std::vector<geom::Vec2> points, double radius)
    : HybridNetwork(std::move(points), [radius] {
        delaunay::LDelOptions opts;
        opts.radius = radius;
        opts.reliableRadius = radius;
        return opts;
      }()) {}

HybridNetwork::HybridNetwork(std::vector<geom::Vec2> points,
                             const delaunay::LDelOptions& options)
    : HybridNetwork(std::move(points), options, routing::HybridOptions{}, nullptr) {}

HybridNetwork::HybridNetwork(std::vector<geom::Vec2> points,
                             const delaunay::LDelOptions& options,
                             routing::HybridOptions routerOptions,
                             const routing::HybridRouter* overlayDonor)
    : radius_(options.radius) {
  {
    obs::ScopedSpan span("core.build.ldel");
    ldel_ = delaunay::buildLocalizedDelaunay(points, options);
  }
  {
    obs::ScopedSpan span("core.build.holes");
    holes_ = holes::detectHoles(ldel_.graph, radius_);
  }
  {
    obs::ScopedSpan span("core.build.abstraction");
    abstractions_ = abstraction::buildAbstractions(ldel_.graph, holes_, radius_);
  }
  {
    obs::ScopedSpan span("core.build.subdivision");
    subdivision_ = std::make_unique<routing::PlanarSubdivision>(ldel_.graph, holes_, radius_);
  }
  obs::ScopedSpan span("core.build.router");
  router_ = std::make_unique<routing::HybridRouter>(ldel_.graph, holes_, abstractions_,
                                                    *subdivision_, routerOptions, overlayDonor);
}

std::unique_ptr<routing::HybridRouter> HybridNetwork::makeRouter(
    routing::HybridOptions options) const {
  return std::make_unique<routing::HybridRouter>(ldel_.graph, holes_, abstractions_,
                                                 *subdivision_, options);
}

double HybridNetwork::shortestUdgDistance(graph::NodeId s, graph::NodeId t) const {
  return graph::shortestPathLength(ldel_.udg, s, t);
}

double HybridNetwork::stretch(const routing::RouteResult& r, graph::NodeId s,
                              graph::NodeId t) const {
  if (!r.delivered) return std::numeric_limits<double>::infinity();
  const double opt = shortestUdgDistance(s, t);
  if (opt <= 0.0) return 1.0;
  return ldel_.graph.pathLength(r.path) / opt;
}

abstraction::StorageReport HybridNetwork::storageReport() const {
  return abstraction::accountStorage(ldel_.graph, holes_, abstractions_,
                                     router_->bayDominatingSets());
}

bool HybridNetwork::convexHullsDisjoint() const {
  for (std::size_t i = 0; i < abstractions_.size(); ++i) {
    const auto& a = abstractions_[i].hullPolygon;
    if (a.size() < 3) continue;
    for (std::size_t j = i + 1; j < abstractions_.size(); ++j) {
      const auto& b = abstractions_[j].hullPolygon;
      if (b.size() < 3) continue;
      if (!a.boundingBox().intersects(b.boundingBox())) continue;
      // Hulls intersect if any vertex of one is inside the other, or any
      // pair of edges crosses.
      for (const geom::Vec2 p : b.vertices()) {
        if (a.containsStrict(p)) return false;
      }
      for (const geom::Vec2 p : a.vertices()) {
        if (b.containsStrict(p)) return false;
      }
      for (std::size_t ei = 0; ei < a.size(); ++ei) {
        for (std::size_t ej = 0; ej < b.size(); ++ej) {
          if (geom::segmentsCrossProperly(a.edge(ei), b.edge(ej))) return false;
        }
      }
    }
  }
  return true;
}

}  // namespace hybrid::core
