"""Metric-learning hybrid recommendations for meta-mining: preference
matrices from paired experiment outcomes, four bilinear metric objectives,
cold-start predictors, and leave-one-out evaluation."""
